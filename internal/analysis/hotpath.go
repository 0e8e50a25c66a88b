package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// syncBlocking are the sync-package methods that acquire a lock or block.
// Unlock/RUnlock are deliberately absent: the acquisition is the report
// site, and flagging its pair would double every finding.
var syncBlocking = map[string]bool{
	"Lock":     true,
	"RLock":    true,
	"TryLock":  true,
	"TryRLock": true,
	"Wait":     true,
	"Do":       true,
}

// Hotpath enforces the telemetry design contract (DESIGN.md §8) on the hot
// path: every function statically reachable from a //hypertap:hotpath root
// (see hotSet). Code that runs per VM Exit or per published event must not
// take locks, format strings, iterate maps, or allocate via slice, map or
// address-taken literals or append. A struct or array literal is a plain
// value, heap-allocated only if it escapes, and escapes are allocproof's to
// prove. The instruments must not perturb the path they measure.
type Hotpath struct{}

// Name implements Pass.
func (Hotpath) Name() string { return "hotpath" }

// Doc implements Pass.
func (Hotpath) Doc() string {
	return "Functions reachable from a //hypertap:hotpath root (telemetry Observe/Inc, EM Publish, exit " +
		"dispatch) run per VM Exit: mutex acquisition, fmt calls, map iteration, and " +
		"slice/map/&T{} literal and append allocations there perturb the measurement the paper's " +
		"overhead numbers depend on. Inherent costs carry //hypertap:allow hotpath <reason>."
}

// CheckProgram implements ProgramPass.
func (h Hotpath) CheckProgram(prog *Program) []Finding {
	var out []Finding
	hs := prog.hotSet()
	for _, pkg := range prog.Pkgs {
		out = append(out, h.check(pkg, hs.hotFuncs(pkg))...)
	}
	return out
}

// check inspects pkg's hot functions.
func (h Hotpath) check(pkg *Package, hot []*ast.FuncDecl) []Finding {
	var out []Finding
	report := func(n ast.Node, msg string) {
		out = append(out, Finding{Pos: pkg.Fset.Position(n.Pos()), Pass: h.Name(), Msg: msg})
	}
	for _, fd := range hot {
		name := fd.Name.Name
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				fn := usedFunc(pkg.Info, n)
				if fn != nil {
					switch objPkgPath(fn) {
					case "sync":
						if syncBlocking[fn.Name()] {
							report(n, "sync."+recvTypeName(fn)+fn.Name()+" acquires/blocks in hot-path func "+name+
								" (lock-free by contract; //hypertap:allow hotpath <reason> if inherent)")
						}
					case "fmt":
						report(n, "fmt."+fn.Name()+" allocates and reflects in hot-path func "+name)
					}
					return true
				}
				if b, ok := pkg.Info.Uses[n].(*types.Builtin); ok && b.Name() == "append" {
					report(n, "append may allocate in hot-path func "+name)
				}
			case *ast.RangeStmt:
				if tv, ok := pkg.Info.Types[n.X]; ok {
					if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
						report(n, "map iteration (hash-order walk) in hot-path func "+name)
					}
				}
			case *ast.UnaryExpr:
				if _, ok := n.X.(*ast.CompositeLit); ok && n.Op == token.AND {
					report(n, "composite literal may allocate in hot-path func "+name)
					return false
				}
			case *ast.CompositeLit:
				if isValueType(pkg.Info.TypeOf(n)) {
					return true
				}
				report(n, "composite literal may allocate in hot-path func "+name)
				// Don't descend: nested literals would re-report per element.
				return false
			}
			return true
		})
	}
	return out
}

// isValueType reports whether t is a struct or array type, whose literals
// are values rather than references to fresh storage.
func isValueType(t types.Type) bool {
	if t == nil {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Struct, *types.Array:
		return true
	}
	return false
}

// recvTypeName renders "Mutex." for methods, "" for plain functions.
func recvTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name() + "."
	}
	return ""
}
