package analysis

import (
	"go/ast"
	"go/types"
)

// The call graph: static (direct) call edges between the functions declared
// in the loaded packages. It is deliberately SSA-free — edges come from
// identifier resolution, so calls through function values, interface
// methods, and deferred closures are not edges. Passes that traverse the
// graph therefore under-approximate reachability and say so in their docs;
// for this codebase's invariants (what runs while the EM lock is held, where
// a campaign seed flows) the direct graph is the load-bearing part, and the
// dynamic call sites that matter (auditor HandleEvent fan-out) are pinned by
// their own passes instead.

// FuncNode is one declared function or method in the program.
type FuncNode struct {
	// Fn is the type-checker's identity for the function.
	Fn *types.Func
	// Decl is the declaration, body included.
	Decl *ast.FuncDecl
	// Pkg is the declaring package.
	Pkg *Package
	// Calls are the static call sites inside Decl.Body, in source order.
	Calls []CallSite
	// Callers are the static call sites that target this function.
	Callers []CallSite
}

// CallSite is one static call edge.
type CallSite struct {
	Caller *FuncNode
	Callee *FuncNode
	// Call is the call expression at the site.
	Call *ast.CallExpr
}

// CallGraph indexes FuncNodes by the full name of their generic origin.
// The loader type-checks each package from source but resolves its imports
// from export data, so a callee in another package is a different
// *types.Func from the one its own package declares; the name is the same
// on both sides, which is what joins the packages into one graph.
type CallGraph struct {
	nodes map[string]*FuncNode
	// order holds the nodes in package and source order.
	order []*FuncNode
}

// NodeOf returns the node for fn, or nil when fn is not declared in the
// loaded packages (stdlib, export-data-only dependencies).
func (g *CallGraph) NodeOf(fn *types.Func) *FuncNode { return g.nodes[fn.Origin().FullName()] }

// buildCallGraph constructs the graph over every loaded package.
func buildCallGraph(prog *Program) *CallGraph {
	g := &CallGraph{nodes: make(map[string]*FuncNode)}
	// Declarations first, so cross-package edges resolve regardless of
	// package order.
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					n := &FuncNode{Fn: fn, Decl: fd, Pkg: pkg}
					g.nodes[fn.FullName()] = n
					g.order = append(g.order, n)
				}
			}
		}
	}
	for _, n := range g.order {
		ast.Inspect(n.Decl.Body, func(x ast.Node) bool {
			call, ok := x.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := calleeFunc(n.Pkg.Info, call)
			if callee == nil {
				return true
			}
			target := g.NodeOf(callee)
			if target == nil {
				return true
			}
			site := CallSite{Caller: n, Callee: target, Call: call}
			n.Calls = append(n.Calls, site)
			target.Callers = append(target.Callers, site)
			return true
		})
	}
	return g
}

// calleeFunc resolves a call expression to its static callee, or nil for
// calls through function values, builtins, and type conversions.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return usedFunc(info, fun)
	case *ast.SelectorExpr:
		return usedFunc(info, fun.Sel)
	}
	return nil
}

// enclosingFunc returns the function declaration whose body contains pos,
// or nil.
func enclosingFunc(pkg *Package, pos ast.Node) *ast.FuncDecl {
	for _, f := range pkg.Files {
		if f.Pos() > pos.Pos() || f.End() < pos.End() {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fd.Pos() <= pos.Pos() && pos.End() <= fd.End() {
				return fd
			}
		}
	}
	return nil
}

// hotSet is the hot path: every function statically reachable from a
// function marked //hypertap:hotpath, the marked roots included. hotpath,
// allocproof and lockdiscipline all read it, so which functions run per VM
// Exit is decided here and nowhere else. redundant holds one directive
// finding per marker on a function that another marked function already
// reaches: such a marker adds nothing, and keeping the markers equal to the
// roots keeps them a readable list of the path's entry points.
type hotSet struct {
	funcs     map[*ast.FuncDecl]bool
	redundant []Finding
}

// buildHotSet walks the call graph from every marked root.
func buildHotSet(prog *Program) *hotSet {
	g := prog.CallGraph()
	// Roots in package and source order, so each redundancy finding names
	// the same reaching root on every run.
	var roots []*FuncNode
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || !hotpathMarked(fd) {
					continue
				}
				if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok && g.NodeOf(fn) != nil {
					roots = append(roots, g.NodeOf(fn))
				}
			}
		}
	}
	hs := &hotSet{funcs: make(map[*ast.FuncDecl]bool)}
	redundant := map[*FuncNode]bool{}
	for _, r := range roots {
		hs.funcs[r.Decl] = true
		// Walk from r's callees, so r itself counts as reached only when
		// another marked function reaches it.
		seen := map[*FuncNode]bool{}
		stack := []*FuncNode{r}
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, c := range n.Calls {
				if seen[c.Callee] {
					continue
				}
				seen[c.Callee] = true
				hs.funcs[c.Callee.Decl] = true
				stack = append(stack, c.Callee)
			}
		}
		for _, other := range roots {
			if other != r && seen[other] && !redundant[other] {
				redundant[other] = true
				hs.redundant = append(hs.redundant, Finding{
					Pos:  other.Pkg.Fset.Position(other.Decl.Name.Pos()),
					Pass: DirectivePass,
					Msg: "hypertap:hotpath on " + other.Decl.Name.Name + " is redundant: marked func " +
						r.Decl.Name.Name + " already reaches it; keep markers on roots only",
				})
			}
		}
	}
	return hs
}

// hotFuncs returns pkg's function declarations on the hot path, in source
// order.
func (hs *hotSet) hotFuncs(pkg *Package) []*ast.FuncDecl {
	var out []*ast.FuncDecl
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && hs.funcs[fd] {
				out = append(out, fd)
			}
		}
	}
	return out
}
