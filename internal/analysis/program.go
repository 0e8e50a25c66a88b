package analysis

import (
	"go/token"
	"sync"
)

// Program is the whole-program view the deep passes run over: every loaded
// package plus the toolchain artifacts (export data) the loader already paid
// for. Per-function AST passes see one Package at a time; call-graph and
// dataflow passes (lockdiscipline, seedflow) and toolchain-backed passes
// (allocproof) see the Program.
type Program struct {
	// Fset resolves token positions across every package.
	Fset *token.FileSet
	// Pkgs are the packages under analysis, sorted by import path.
	Pkgs []*Package
	// Exports maps import path → compiled export data for every dependency
	// of the loaded packages. The allocproof pass reuses it as the importcfg
	// of its own `go tool compile -m` runs, so escape analysis needs no
	// second `go list` round trip.
	Exports map[string]string

	cgOnce sync.Once
	cg     *CallGraph

	hotOnce sync.Once
	hot     *hotSet
}

// NewProgram assembles a Program over pkgs using the loader's file set and
// export map. Fixture tests use it to present a single testdata package as a
// whole program.
func (l *Loader) NewProgram(pkgs []*Package) *Program {
	return &Program{Fset: l.fset, Pkgs: pkgs, Exports: l.exports}
}

// CallGraph returns the program's static call graph, built on first use and
// shared by every pass that needs reachability.
func (p *Program) CallGraph() *CallGraph {
	p.cgOnce.Do(func() { p.cg = buildCallGraph(p) })
	return p.cg
}

// hotSet returns the program's hot path, built on first use and shared by
// every pass that checks it.
func (p *Program) hotSet() *hotSet {
	p.hotOnce.Do(func() { p.hot = buildHotSet(p) })
	return p.hot
}
