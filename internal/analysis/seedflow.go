package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// SeedFlow proves where campaign seeds come from. The seededrand pass pins
// the mechanism (every rand must be explicitly seeded); this pass pins the
// provenance: in the experiment and workload packages, the value reaching
// rand.New / rand.NewSource must trace back to configuration — a struct
// field or an unresolvable external input — and never to a literal or the
// wall clock. A literal seed silently collapses every campaign onto one
// trajectory; a time-derived seed makes "same seed, same verdict" (the
// determinism contract replay equivalence rests on) false by construction.
//
// The trace is an interprocedural taint walk over the static call graph:
// constants and time.* calls poison an expression; locals follow their
// assignments; parameters are resolved at every static caller, so a helper
// like UnitRNG(seed, i) is judged by what each campaign actually passes it.
// Calls through function values and interface methods are not edges, and an
// exported function with no in-repo caller is accepted — the pass
// under-approximates rather than guessing.
type SeedFlow struct{}

// Name implements Pass.
func (SeedFlow) Name() string { return "seedflow" }

// Doc implements Pass.
func (SeedFlow) Doc() string {
	return "campaign RNG seeds in internal/experiment and internal/workload must flow from configuration, not from literals or the wall clock — traced interprocedurally through the call graph"
}

// seedScopePkgs are the packages whose rand constructions are traced.
var seedScopePkgs = []string{
	"hypertap/internal/experiment/...",
	"hypertap/internal/workload",
}

// provKind classifies a seed expression's origin.
type provKind int

const (
	provOK provKind = iota
	provLiteral
	provWallclock
	provParam
)

// prov is one provenance verdict; witness describes where the poison enters.
type prov struct {
	kind    provKind
	witness string
	// param and fn identify the parameter to chase callers for.
	param int
	fn    *types.Func
}

// CheckProgram implements ProgramPass.
func (SeedFlow) CheckProgram(prog *Program) []Finding {
	s := &seedTracer{prog: prog, graph: prog.CallGraph()}
	for _, pkg := range prog.Pkgs {
		if !pathMatches(pkg.ImportPath, seedScopePkgs) {
			continue
		}
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				s.checkRandCall(pkg, call)
				return true
			})
		}
	}
	return s.findings
}

// seedTracer carries the walk state.
type seedTracer struct {
	prog     *Program
	graph    *CallGraph
	findings []Finding
}

// seedTraceDepth bounds the caller chase; deeper chains than this are
// accepted rather than guessed at.
const seedTraceDepth = 6

// checkRandCall analyzes one rand.NewSource / rand.New call site.
func (s *seedTracer) checkRandCall(pkg *Package, call *ast.CallExpr) {
	callee := calleeFunc(pkg.Info, call)
	if callee == nil || len(call.Args) != 1 {
		return
	}
	switch objPkgPath(callee) {
	case "math/rand", "math/rand/v2":
	default:
		return
	}
	arg := call.Args[0]
	switch callee.Name() {
	case "NewSource":
	case "New":
		// rand.New(rand.NewSource(x)) is judged at the inner NewSource call;
		// a source built elsewhere is judged where it was built.
		return
	default:
		return
	}
	fd := enclosingFunc(pkg, call)
	visited := map[paramKey]bool{}
	p := s.classify(pkg, fd, arg, visited, 0)
	switch p.kind {
	case provLiteral:
		s.reportf(pkg, call.Pos(), "rand seeded from a literal (%s): every campaign collapses onto one trajectory — thread the seed from the experiment config", p.witness)
	case provWallclock:
		s.reportf(pkg, call.Pos(), "rand seeded from the wall clock (%s): same config no longer reproduces the same run — thread the seed from the experiment config", p.witness)
	case provParam:
		if bad := s.chaseCallers(p.fn, p.param, visited, 0); bad != nil {
			s.reportf(pkg, call.Pos(), "rand seed parameter resolves to %s at caller %s", bad.what, bad.where)
		}
	}
}

func (s *seedTracer) reportf(pkg *Package, pos token.Pos, format string, args ...any) {
	s.findings = append(s.findings, Finding{
		Pos:  pkg.Fset.Position(pos),
		Pass: "seedflow",
		Msg:  fmt.Sprintf(format, args...),
	})
}

// paramKey dedupes (function, parameter) pairs on the caller chase.
type paramKey struct {
	fn    *types.Func
	param int
}

// badSeed is a poisoned origin found at some caller.
type badSeed struct {
	what  string
	where string
}

// chaseCallers resolves a tainted parameter at every static call site.
func (s *seedTracer) chaseCallers(fn *types.Func, param int, visited map[paramKey]bool, depth int) *badSeed {
	if fn == nil || depth > seedTraceDepth || visited[paramKey{fn, param}] {
		return nil
	}
	visited[paramKey{fn, param}] = true
	node := s.graph.NodeOf(fn)
	if node == nil {
		return nil
	}
	for _, site := range node.Callers {
		if param >= len(site.Call.Args) {
			continue // variadic edge cases are accepted, not guessed
		}
		callerPkg := site.Caller.Pkg
		p := s.classify(callerPkg, site.Caller.Decl, site.Call.Args[param], visited, depth+1)
		pos := callerPkg.Fset.Position(site.Call.Pos())
		switch p.kind {
		case provLiteral:
			return &badSeed{what: fmt.Sprintf("a literal (%s)", p.witness), where: shortPos(pos)}
		case provWallclock:
			return &badSeed{what: fmt.Sprintf("the wall clock (%s)", p.witness), where: shortPos(pos)}
		case provParam:
			if bad := s.chaseCallers(p.fn, p.param, visited, depth+1); bad != nil {
				return bad
			}
		}
	}
	return nil
}

// classify walks one expression to its origin within fd's context.
func (s *seedTracer) classify(pkg *Package, fd *ast.FuncDecl, e ast.Expr, visited map[paramKey]bool, depth int) prov {
	if depth > seedTraceDepth {
		return prov{kind: provOK}
	}
	e = ast.Unparen(e)
	if tv, ok := pkg.Info.Types[e]; ok && tv.Value != nil {
		return prov{kind: provLiteral, witness: tv.Value.String()}
	}
	switch x := e.(type) {
	case *ast.Ident:
		return s.classifyIdent(pkg, fd, x, visited, depth)
	case *ast.SelectorExpr:
		// A field or package-level value: configuration by construction —
		// the seed was stored, not invented here.
		return prov{kind: provOK}
	case *ast.UnaryExpr:
		return s.classify(pkg, fd, x.X, visited, depth+1)
	case *ast.BinaryExpr:
		l := s.classify(pkg, fd, x.X, visited, depth+1)
		r := s.classify(pkg, fd, x.Y, visited, depth+1)
		// Offsetting or mixing: the worse origin decides; a param mixed with
		// a literal is still the param's caller's problem.
		for _, p := range []prov{l, r} {
			if p.kind == provWallclock {
				return p
			}
		}
		for _, p := range []prov{l, r} {
			if p.kind == provParam {
				return p
			}
		}
		if l.kind == provLiteral && r.kind == provLiteral {
			return l
		}
		return prov{kind: provOK}
	case *ast.CallExpr:
		return s.classifyCall(pkg, fd, x, visited, depth)
	}
	return prov{kind: provOK}
}

// classifyIdent resolves a name: parameter, constant, or local variable
// (followed through its assignments).
func (s *seedTracer) classifyIdent(pkg *Package, fd *ast.FuncDecl, id *ast.Ident, visited map[paramKey]bool, depth int) prov {
	obj := pkg.Info.Uses[id]
	v, ok := obj.(*types.Var)
	if !ok {
		if c, isConst := obj.(*types.Const); isConst {
			return prov{kind: provLiteral, witness: c.Val().String()}
		}
		return prov{kind: provOK}
	}
	if fd != nil {
		if idx, fn := paramIndex(pkg, fd, v); idx >= 0 {
			return prov{kind: provParam, param: idx, fn: fn}
		}
	}
	if v.IsField() || fd == nil {
		return prov{kind: provOK}
	}
	// A local: its origin is the worst of its assignments in this function.
	var worst prov
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		asg, ok := n.(*ast.AssignStmt)
		if !ok || len(asg.Lhs) != len(asg.Rhs) {
			return true
		}
		for i, lhs := range asg.Lhs {
			lid, ok := lhs.(*ast.Ident)
			if !ok || !identIs(pkg.Info, lid, v) {
				continue
			}
			worst = worseProv(worst, s.classify(pkg, fd, asg.Rhs[i], visited, depth+1))
		}
		return true
	})
	return worst
}

// identIs reports whether id resolves (as a definition or a use) to v.
func identIs(info *types.Info, id *ast.Ident, v *types.Var) bool {
	if def, ok := info.Defs[id]; ok {
		return def == v
	}
	return info.Uses[id] == v
}

// worseProv picks the more damning of two provenances: wall clock beats a
// literal beats a parameter beats clean.
func worseProv(a, b prov) prov {
	rank := func(k provKind) int {
		switch k {
		case provWallclock:
			return 3
		case provLiteral:
			return 2
		case provParam:
			return 1
		}
		return 0
	}
	if rank(b.kind) > rank(a.kind) {
		return b
	}
	return a
}

// classifyCall resolves a call: conversions unwrap, time.* poisons, and
// in-graph callees are judged by what they return.
func (s *seedTracer) classifyCall(pkg *Package, fd *ast.FuncDecl, call *ast.CallExpr, visited map[paramKey]bool, depth int) prov {
	if tv, ok := pkg.Info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		return s.classify(pkg, fd, call.Args[0], visited, depth+1)
	}
	callee := calleeFunc(pkg.Info, call)
	if callee == nil {
		return prov{kind: provOK}
	}
	if objPkgPath(callee) == "time" {
		return prov{kind: provWallclock, witness: "time." + callee.Name()}
	}
	// Methods on time.Time (UnixNano and friends) are the usual laundering
	// step for a wall-clock seed.
	if sig, ok := callee.Type().(*types.Signature); ok && sig.Recv() != nil {
		if named, ok := deref(sig.Recv().Type()).(*types.Named); ok &&
			named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == "time" {
			return prov{kind: provWallclock, witness: "time." + named.Obj().Name() + "." + callee.Name()}
		}
	}
	node := s.graph.NodeOf(callee)
	if node == nil {
		return prov{kind: provOK}
	}
	// Judge a helper by what it returns, with its parameters substituted by
	// this call's arguments.
	var result prov
	ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok || len(ret.Results) != 1 || result.kind != provOK {
			return true
		}
		p := s.classify(node.Pkg, node.Decl, ret.Results[0], visited, depth+1)
		if p.kind == provParam && p.fn == node.Fn {
			if p.param < len(call.Args) {
				p = s.classify(pkg, fd, call.Args[p.param], visited, depth+1)
			} else {
				p = prov{kind: provOK}
			}
		}
		if p.kind != provOK {
			result = p
		}
		return true
	})
	return result
}

// paramIndex returns v's position in fd's parameter list (and fd's checked
// identity), or -1.
func paramIndex(pkg *Package, fd *ast.FuncDecl, v *types.Var) (int, *types.Func) {
	if fd.Type.Params == nil {
		return -1, nil
	}
	fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
	idx := 0
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			if pkg.Info.Defs[name] == v {
				return idx, fn
			}
			idx++
		}
		if len(field.Names) == 0 {
			idx++
		}
	}
	return -1, nil
}
