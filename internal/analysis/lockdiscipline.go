package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// LockDiscipline verifies what DESIGN.md §8 asserts in prose: the EM lock is
// an uncontended fan-out point, and the flight rings have exactly one writer.
// Both claims die quietly — a channel send or an fmt.Fprintf slipped into a
// critical section turns "one uncontended lock" into a convoy, and a ring
// write outside the EM lock is a data race the benchmarks won't catch — so
// the pass walks every function in the core package with a held-lock set and
// flags:
//
//   - blocking operations inside a critical section: a second mutex acquire
//     outside the sanctioned lock order, channel sends/receives (non-blocking
//     select-with-default communication is exempt), selects without a
//     default, time.Sleep/After/Tick, sync.WaitGroup.Wait (sync.Cond.Wait is
//     exempt — it releases the mutex), and I/O (os/net/io/bufio/net/http/
//     os/exec/log calls and the fmt Print/Fprint/Scan families; fmt.Errorf
//     and Sprintf only allocate, which is the hotpath/allocproof passes'
//     beat, not a stall);
//   - the same operations reached transitively through static calls, using
//     memoized per-function summaries over the program call graph;
//   - FlightTable.recordExit / FlightTable.RecordSpan call sites that do not
//     hold the Multiplexer lock (the rings' single-writer contract), plus any
//     call site outside the core package entirely;
//   - mutex acquires inside a loop of a hot-path function (one reachable
//     from a //hypertap:hotpath root; see hotSet) — the batch path's
//     no-per-event-lock rule.
//
// The analysis is an under-approximation by design: calls through function
// values, interface methods and goroutines are not edges, and branch scans
// keep the pre-branch held set. Those are exactly the dynamic sites the
// other passes pin (auditor fan-out runs outside the lock by construction).
type LockDiscipline struct{}

// Name implements Pass.
func (LockDiscipline) Name() string { return "lockdiscipline" }

// Doc implements Pass.
func (LockDiscipline) Doc() string {
	return "critical sections in internal/core must not block: no channel ops, I/O, sleeps, or out-of-order lock acquires while a mutex is held (directly or through static callees), flight-ring writes only under the EM lock, and no per-event lock acquires inside hot-path loops"
}

// lockScopePkgs are the packages whose functions are scanned for critical
// sections. Summaries are still computed program-wide, so a core function
// calling into telemetry under its lock is charged for what telemetry does.
var lockScopePkgs = []string{"hypertap/internal/core"}

// lockOrder is the sanctioned nested-acquire DAG: holding the key, acquiring
// a value is legitimate. Everything else nested is a finding.
var lockOrder = map[string][]string{
	"core.Multiplexer.mu": {"telemetry.Registry.mu"},
	"core.RHCServer.mu":   {"telemetry.Registry.mu"},
}

// emLock is the lock the flight rings' single-writer contract hangs off.
const emLock = "core.Multiplexer.mu"

// flightWriters are the FlightTable methods that store into the rings.
var flightWriters = map[string]bool{"recordExit": true, "RecordSpan": true}

// lockOp is one summarized effect of calling a function.
type lockOp struct {
	// acquire names the lock taken ("" for a pure blocking op).
	acquire string
	// blocking describes the stall ("" for a pure acquire).
	blocking string
	// pos is where the op happens inside the summarized function.
	pos token.Pos
}

// CheckProgram implements ProgramPass.
func (LockDiscipline) CheckProgram(prog *Program) []Finding {
	s := &lockScanner{
		prog:      prog,
		graph:     prog.CallGraph(),
		summaries: make(map[*FuncNode][]lockOp),
		inFlight:  make(map[*FuncNode]bool),
	}
	for _, pkg := range prog.Pkgs {
		if !pathMatches(pkg.ImportPath, lockScopePkgs) {
			continue
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
					s.scanFunc(pkg, fd)
				}
			}
		}
	}
	s.checkForeignRingWrites()
	return s.findings
}

// lockScanner carries the traversal state.
type lockScanner struct {
	prog  *Program
	graph *CallGraph
	// summaries memoizes per-function effect lists; inFlight breaks cycles.
	summaries map[*FuncNode][]lockOp
	inFlight  map[*FuncNode]bool
	findings  []Finding
}

func (s *lockScanner) report(pkg *Package, pos token.Pos, format string, args ...any) {
	s.findings = append(s.findings, Finding{
		Pos:  pkg.Fset.Position(pos),
		Pass: "lockdiscipline",
		Msg:  fmt.Sprintf(format, args...),
	})
}

// scanFunc walks one in-scope function with an empty held set, then scans
// every function literal it contains as an independent (unheld) body — a
// closure runs when invoked, not where it is written.
func (s *lockScanner) scanFunc(pkg *Package, fd *ast.FuncDecl) {
	hot := s.prog.hotSet().funcs[fd]
	st := &lockState{held: map[string]token.Pos{}}
	s.scanStmts(pkg, fd, fd.Body.List, st, hot, false)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok {
			s.scanStmts(pkg, fd, fl.Body.List, &lockState{held: map[string]token.Pos{}}, false, false)
			return false
		}
		return true
	})
}

// lockState is the held-lock set at one program point.
type lockState struct {
	held map[string]token.Pos
}

func (st *lockState) clone() *lockState {
	c := &lockState{held: make(map[string]token.Pos, len(st.held))}
	for k, v := range st.held {
		c.held[k] = v
	}
	return c
}

// scanStmts runs the linear scan over a statement list, mutating st.
// Branch bodies scan on clones and the pre-branch state carries forward:
// the idiom this keeps sound is `if x { unlock; return }`.
func (s *lockScanner) scanStmts(pkg *Package, fd *ast.FuncDecl, stmts []ast.Stmt, st *lockState, hot, inLoop bool) {
	for _, stmt := range stmts {
		s.scanStmt(pkg, fd, stmt, st, hot, inLoop)
	}
}

func (s *lockScanner) scanStmt(pkg *Package, fd *ast.FuncDecl, stmt ast.Stmt, st *lockState, hot, inLoop bool) {
	switch x := stmt.(type) {
	case *ast.BlockStmt:
		s.scanStmts(pkg, fd, x.List, st, hot, inLoop)
	case *ast.IfStmt:
		if x.Init != nil {
			s.scanStmt(pkg, fd, x.Init, st, hot, inLoop)
		}
		s.scanExprs(pkg, fd, x.Cond, st, hot, inLoop)
		s.scanStmt(pkg, fd, x.Body, st.clone(), hot, inLoop)
		if x.Else != nil {
			s.scanStmt(pkg, fd, x.Else, st.clone(), hot, inLoop)
		}
	case *ast.ForStmt:
		if x.Init != nil {
			s.scanStmt(pkg, fd, x.Init, st, hot, inLoop)
		}
		if x.Cond != nil {
			s.scanExprs(pkg, fd, x.Cond, st, hot, true)
		}
		s.scanStmt(pkg, fd, x.Body, st.clone(), hot, true)
	case *ast.RangeStmt:
		s.scanExprs(pkg, fd, x.X, st, hot, inLoop)
		s.scanStmt(pkg, fd, x.Body, st.clone(), hot, true)
	case *ast.SwitchStmt:
		if x.Init != nil {
			s.scanStmt(pkg, fd, x.Init, st, hot, inLoop)
		}
		if x.Tag != nil {
			s.scanExprs(pkg, fd, x.Tag, st, hot, inLoop)
		}
		for _, c := range x.Body.List {
			s.scanStmt(pkg, fd, c, st.clone(), hot, inLoop)
		}
	case *ast.TypeSwitchStmt:
		if x.Init != nil {
			s.scanStmt(pkg, fd, x.Init, st, hot, inLoop)
		}
		for _, c := range x.Body.List {
			s.scanStmt(pkg, fd, c, st.clone(), hot, inLoop)
		}
	case *ast.CaseClause:
		s.scanStmts(pkg, fd, x.Body, st, hot, inLoop)
	case *ast.SelectStmt:
		s.scanSelect(pkg, fd, x, st, hot, inLoop)
	case *ast.SendStmt:
		if lock, pos := oldest(st); lock != "" {
			s.report(pkg, x.Arrow, "channel send while holding %s (acquired %s): a full buffer parks the critical section",
				lock, shortPos(pkg.Fset.Position(pos)))
		}
		s.scanExprs(pkg, fd, x.Chan, st, hot, inLoop)
		s.scanExprs(pkg, fd, x.Value, st, hot, inLoop)
	case *ast.DeferStmt:
		// `defer mu.Unlock()` pins the lock to function exit — the held set
		// is unchanged, which is exactly right for the scan of what follows.
		// Other deferred calls run at exit, outside this linear order; they
		// are not charged against the current held set.
		return
	case *ast.GoStmt:
		// A new goroutine starts with no inherited locks; its body is a
		// function literal scanned independently by scanFunc.
		return
	case *ast.ExprStmt:
		s.scanExprs(pkg, fd, x.X, st, hot, inLoop)
	case *ast.AssignStmt:
		for _, e := range x.Rhs {
			s.scanExprs(pkg, fd, e, st, hot, inLoop)
		}
		for _, e := range x.Lhs {
			s.scanExprs(pkg, fd, e, st, hot, inLoop)
		}
	case *ast.ReturnStmt:
		for _, e := range x.Results {
			s.scanExprs(pkg, fd, e, st, hot, inLoop)
		}
	case *ast.DeclStmt, *ast.IncDecStmt, *ast.LabeledStmt, *ast.BranchStmt, *ast.EmptyStmt:
		ast.Inspect(stmt, func(n ast.Node) bool {
			if e, ok := n.(ast.Expr); ok {
				s.scanExprs(pkg, fd, e, st, hot, inLoop)
				return false
			}
			return true
		})
	}
}

// scanSelect handles the one sanctioned channel idiom: communication inside
// a select that has a default case never parks.
func (s *lockScanner) scanSelect(pkg *Package, fd *ast.FuncDecl, sel *ast.SelectStmt, st *lockState, hot, inLoop bool) {
	hasDefault := false
	for _, c := range sel.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			hasDefault = true
		}
	}
	if lock, pos := oldest(st); lock != "" && !hasDefault {
		s.report(pkg, sel.Select, "select without a default case while holding %s (acquired %s): the critical section parks until a peer is ready",
			lock, shortPos(pkg.Fset.Position(pos)))
	}
	for _, c := range sel.Body.List {
		cc, ok := c.(*ast.CommClause)
		if !ok {
			continue
		}
		// The comm op itself is covered by the select verdict above; only
		// the clause bodies still need scanning.
		s.scanStmts(pkg, fd, cc.Body, st.clone(), hot, inLoop)
	}
}

// scanExprs walks one expression for calls and channel receives, skipping
// function literals (scanned separately, unheld).
func (s *lockScanner) scanExprs(pkg *Package, fd *ast.FuncDecl, expr ast.Expr, st *lockState, hot, inLoop bool) {
	if expr == nil {
		return
	}
	ast.Inspect(expr, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				if lock, pos := oldest(st); lock != "" {
					s.report(pkg, x.OpPos, "channel receive while holding %s (acquired %s): an empty channel parks the critical section",
						lock, shortPos(pkg.Fset.Position(pos)))
				}
			}
		case *ast.CallExpr:
			s.handleCall(pkg, fd, x, st, hot, inLoop)
		}
		return true
	})
}

// handleCall classifies one call: mutex acquire/release, direct blocking op,
// flight-ring write, or a static callee whose summary is charged here.
func (s *lockScanner) handleCall(pkg *Package, fd *ast.FuncDecl, call *ast.CallExpr, st *lockState, hot, inLoop bool) {
	if lock, op, ok := mutexOp(pkg.Info, call); ok {
		switch op {
		case "Lock", "RLock":
			s.acquire(pkg, fd, call.Pos(), lock, st, hot, inLoop, "")
			st.held[lock] = call.Pos()
		case "Unlock", "RUnlock":
			delete(st.held, lock)
		}
		return
	}
	callee := calleeFunc(pkg.Info, call)
	if callee == nil {
		return
	}
	if desc := blockingCall(callee); desc != "" {
		if lock, pos := oldest(st); lock != "" {
			s.report(pkg, call.Pos(), "%s while holding %s (acquired %s)", desc, lock, shortPos(pkg.Fset.Position(pos)))
		}
		return
	}
	if isFlightWriter(callee) {
		if _, ok := st.held[emLock]; !ok {
			s.report(pkg, call.Pos(), "FlightTable.%s without holding %s: the flight rings are single-writer under the EM lock (route cold callers through Multiplexer.RecordSpan)",
				callee.Name(), emLock)
		}
		return
	}
	node := s.graph.NodeOf(callee)
	if node == nil {
		return
	}
	for _, op := range s.summary(node) {
		where := shortPos(s.prog.Fset.Position(op.pos))
		if op.acquire != "" {
			s.acquire(pkg, fd, call.Pos(), op.acquire, st, hot, inLoop,
				fmt.Sprintf(" via %s (%s)", callee.FullName(), where))
		} else if op.blocking != "" {
			if lock, pos := oldest(st); lock != "" {
				s.report(pkg, call.Pos(), "%s via %s (%s) while holding %s (acquired %s)",
					op.blocking, callee.FullName(), where, lock, shortPos(pkg.Fset.Position(pos)))
			}
		}
	}
}

// acquire applies the nested-acquire rules for taking lock at pos.
func (s *lockScanner) acquire(pkg *Package, fd *ast.FuncDecl, pos token.Pos, lock string, st *lockState, hot, inLoop bool, via string) {
	if hot && inLoop {
		s.report(pkg, pos, "mutex %s acquired inside a loop of hot-path func %s%s: the batch path must acquire per batch, not per event",
			lock, fd.Name.Name, via)
	}
	if _, ok := st.held[lock]; ok {
		s.report(pkg, pos, "re-acquiring %s already held%s: self-deadlock", lock, via)
		return
	}
	for held, at := range st.held {
		if !orderAllows(held, lock) {
			s.report(pkg, pos, "acquiring %s while holding %s (acquired %s)%s: not in the sanctioned lock order",
				lock, held, shortPos(pkg.Fset.Position(at)), via)
		}
	}
}

// summary computes (memoized) the effect list of calling node: every mutex
// acquire and blocking op it performs directly or through static callees.
// Cycles contribute nothing on the back edge, which keeps the result a
// fixed under-approximation instead of diverging.
func (s *lockScanner) summary(node *FuncNode) []lockOp {
	if ops, ok := s.summaries[node]; ok {
		return ops
	}
	if s.inFlight[node] {
		return nil
	}
	s.inFlight[node] = true
	defer delete(s.inFlight, node)

	var ops []lockOp
	info := node.Pkg.Info
	held := map[string]bool{}
	ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit, *ast.GoStmt:
			return false
		case *ast.SelectStmt:
			// Non-blocking selects (with default) are the sanctioned idiom;
			// their comm ops do not park. Blocking selects are charged.
			hasDefault := false
			for _, c := range x.Body.List {
				if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
					hasDefault = true
				}
			}
			if !hasDefault {
				ops = append(ops, lockOp{blocking: "blocking select", pos: x.Select})
			}
			for _, c := range x.Body.List {
				if cc, ok := c.(*ast.CommClause); ok {
					for _, b := range cc.Body {
						ast.Inspect(b, func(m ast.Node) bool { return s.summaryNode(info, m, held, &ops) })
					}
				}
			}
			return false
		}
		return s.summaryNode(info, n, held, &ops)
	})
	s.summaries[node] = ops
	return ops
}

// summaryNode records one node's effect during a summary walk. held tracks
// the summarized function's own acquires so they are reported once each.
func (s *lockScanner) summaryNode(info *types.Info, n ast.Node, held map[string]bool, ops *[]lockOp) bool {
	switch x := n.(type) {
	case *ast.FuncLit, *ast.GoStmt:
		return false
	case *ast.SendStmt:
		*ops = append(*ops, lockOp{blocking: "channel send", pos: x.Arrow})
	case *ast.UnaryExpr:
		if x.Op == token.ARROW {
			*ops = append(*ops, lockOp{blocking: "channel receive", pos: x.OpPos})
		}
	case *ast.CallExpr:
		if lock, op, ok := mutexOp(info, x); ok {
			if (op == "Lock" || op == "RLock") && !held[lock] {
				held[lock] = true
				*ops = append(*ops, lockOp{acquire: lock, pos: x.Pos()})
			}
			return true
		}
		callee := calleeFunc(info, x)
		if callee == nil {
			return true
		}
		if desc := blockingCall(callee); desc != "" {
			*ops = append(*ops, lockOp{blocking: desc, pos: x.Pos()})
			return true
		}
		if sub := s.graph.NodeOf(callee); sub != nil {
			for _, op := range s.summary(sub) {
				if op.acquire != "" && held[op.acquire] {
					continue
				}
				*ops = append(*ops, op)
			}
		}
	}
	return true
}

// checkForeignRingWrites flags FlightTable writer calls from outside the
// core package: even a locked caller elsewhere cannot hold the EM lock of
// the table's owner, so the single-writer contract is unprovable there.
func (s *lockScanner) checkForeignRingWrites() {
	for _, pkg := range s.prog.Pkgs {
		if pathMatches(pkg.ImportPath, lockScopePkgs) {
			continue
		}
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if callee := calleeFunc(pkg.Info, call); callee != nil && isFlightWriter(callee) {
					s.report(pkg, call.Pos(), "FlightTable.%s called outside internal/core: the flight rings are single-writer under the EM lock (use Multiplexer.RecordSpan)",
						callee.Name())
				}
				return true
			})
		}
	}
}

// oldest returns the longest-held lock in st (deterministic pick by name
// when several are held), or "".
func oldest(st *lockState) (string, token.Pos) {
	name, pos := "", token.NoPos
	for l, p := range st.held {
		if name == "" || p < pos || (p == pos && l < name) {
			name, pos = l, p
		}
	}
	return name, pos
}

// orderAllows reports whether acquiring next while holding held is in the
// sanctioned order DAG (transitively).
func orderAllows(held, next string) bool {
	seen := map[string]bool{}
	var walk func(from string) bool
	walk = func(from string) bool {
		if seen[from] {
			return false
		}
		seen[from] = true
		for _, to := range lockOrder[from] {
			if to == next || walk(to) {
				return true
			}
		}
		return false
	}
	return walk(held)
}

// mutexOp matches `<expr>.Lock()` / `.Unlock()` / `.RLock()` / `.RUnlock()`
// on a sync.Mutex or sync.RWMutex and returns the lock's identity.
func mutexOp(info *types.Info, call *ast.CallExpr) (lock, op string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	switch sel.Sel.Name {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return "", "", false
	}
	fn := usedFunc(info, sel.Sel)
	if fn == nil || objPkgPath(fn) != "sync" {
		return "", "", false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return "", "", false
	}
	switch deref(recv.Type()).String() {
	case "sync.Mutex", "sync.RWMutex":
	default:
		return "", "", false
	}
	return lockIdent(info, sel.X), sel.Sel.Name, true
}

// lockIdent names a mutex expression: `m.mu` on a *Multiplexer receiver is
// "core.Multiplexer.mu"; a plain local is "local <name>"; anything more
// dynamic degrades to the expression's type.
func lockIdent(info *types.Info, expr ast.Expr) string {
	switch x := ast.Unparen(expr).(type) {
	case *ast.SelectorExpr:
		if base, ok := deref(typeOf(info, x.X)).(*types.Named); ok && base.Obj().Pkg() != nil {
			return base.Obj().Pkg().Name() + "." + base.Obj().Name() + "." + x.Sel.Name
		}
		return "lock field " + x.Sel.Name
	case *ast.Ident:
		return "local " + x.Name
	}
	if t := typeOf(info, expr); t != nil {
		return t.String()
	}
	return "unknown lock"
}

// typeOf is info.TypeOf with a nil guard for expressions the checker skipped.
func typeOf(info *types.Info, e ast.Expr) types.Type {
	if e == nil {
		return nil
	}
	return info.TypeOf(e)
}

// deref strips one pointer layer.
func deref(t types.Type) types.Type {
	if t == nil {
		return types.Typ[types.Invalid]
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// isFlightWriter matches the two FlightTable ring-writing methods.
func isFlightWriter(fn *types.Func) bool {
	if !flightWriters[fn.Name()] || objPkgPath(fn) != "hypertap/internal/core" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	named, ok := deref(sig.Recv().Type()).(*types.Named)
	return ok && named.Obj().Name() == "FlightTable"
}

// blockingCall classifies a callee as a known stall: timer waits,
// WaitGroup.Wait, or I/O. Returns "" for benign calls. sync.Cond.Wait is
// deliberately absent — it releases the mutex while parked, which is the
// condition-variable contract, not a lock-held stall.
func blockingCall(fn *types.Func) string {
	pkg := objPkgPath(fn)
	name := fn.Name()
	switch pkg {
	case "time":
		switch name {
		case "Sleep", "After", "Tick":
			return "time." + name
		}
		return ""
	case "sync":
		if name == "Wait" {
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
				if deref(sig.Recv().Type()).String() == "sync.WaitGroup" {
					return "sync.WaitGroup.Wait"
				}
			}
		}
		return ""
	case "fmt":
		if strings.HasPrefix(name, "Print") || strings.HasPrefix(name, "Fprint") ||
			strings.HasPrefix(name, "Scan") || strings.HasPrefix(name, "Fscan") ||
			strings.HasPrefix(name, "Sscan") {
			return "I/O call fmt." + name
		}
		return ""
	case "log", "os/exec", "net/http":
		return "I/O call " + pkg + "." + name
	case "os", "net", "io", "bufio":
		// Package-level constructors and lookups that hit the kernel or the
		// network, plus the read/write method families on these packages'
		// types. Deadline/option setters are metadata writes, not stalls.
		sig, _ := fn.Type().(*types.Signature)
		if sig != nil && sig.Recv() != nil {
			switch name {
			case "Read", "Write", "ReadFrom", "WriteTo", "Flush", "Sync",
				"Accept", "Scan", "ReadString", "ReadBytes", "ReadLine",
				"WriteString", "Close":
				return "I/O call " + pkg + "." + deref(sig.Recv().Type()).String() + "." + name
			}
			return ""
		}
		switch name {
		case "Open", "OpenFile", "Create", "ReadFile", "WriteFile", "Remove",
			"RemoveAll", "Mkdir", "MkdirAll", "ReadDir", "Dial", "DialTimeout",
			"Listen", "Copy", "CopyN", "ReadAll", "ReadFull", "WriteString",
			"Pipe", "LookupHost", "LookupAddr":
			return "I/O call " + pkg + "." + name
		}
	}
	return ""
}
