// Package analysis is hypertap-vet's analyzer framework: a stdlib-only
// (go/ast + go/parser + go/types, no external modules) harness for
// repo-specific static-analysis passes that turn DESIGN.md §7's prose
// invariants — determinism, auditor isolation, hot-path frugality — into a
// mechanical pre-merge gate.
//
// A Pass inspects one type-checked Package and reports Findings. The
// framework owns everything shared between passes: package loading (see
// load.go, built over `go list -export` so the build stays offline and
// stdlib-only), escape-comment directives (see directive.go), finding
// suppression, and deterministic ordering of results.
//
// Only non-test files are analyzed: tests legitimately use wall-clock
// deadlines (the RHC's TCP suites), fixed ad-hoc seeds, and direct machine
// construction.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
)

// Finding is one rule violation at a source position.
type Finding struct {
	Pos  token.Position
	Pass string
	Msg  string
}

// String renders the canonical `file:line: [pass] message` form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Pass, f.Msg)
}

// Package is one type-checked package under analysis.
type Package struct {
	// ImportPath is the package's import path — passes use it to decide
	// applicability (e.g. the wallclock determinism contract).
	ImportPath string
	// Dir is the package directory on disk.
	Dir string
	// Fset resolves token positions for Files.
	Fset *token.FileSet
	// Files are the parsed non-test Go files, with comments.
	Files []*ast.File
	// Types is the checked package; Info carries identifier resolution.
	Types *types.Package
	Info  *types.Info

	// dirs is the parsed directive set, built once per package.
	dirs *directiveSet
}

// Pass is one invariant checker: either a PackagePass (per-package AST
// inspection) or a ProgramPass (whole-program call-graph / dataflow /
// toolchain analysis). Suppression by escape comments is the framework's
// job; passes report every violation they see.
type Pass interface {
	// Name is the short pass name used in findings and escape comments.
	Name() string
	// Doc is a one-paragraph rationale: the invariant enforced and why.
	Doc() string
}

// PackagePass inspects one type-checked package at a time.
type PackagePass interface {
	Pass
	// Check reports violations in pkg.
	Check(pkg *Package) []Finding
}

// ProgramPass sees every loaded package at once, plus the call graph and
// toolchain artifacts the Program carries.
type ProgramPass interface {
	Pass
	// CheckProgram reports violations anywhere in the program.
	CheckProgram(prog *Program) []Finding
}

// directives parses (once) and returns the package's directive set.
func (p *Package) directives(known map[string]bool) *directiveSet {
	if p.dirs == nil {
		p.dirs = parseDirectives(p, known)
	}
	return p.dirs
}

// Run applies every pass to the program, drops findings suppressed by
// `//hypertap:allow` directives, appends directive-misuse findings,
// stale-allow findings (an allow that suppressed nothing is itself a
// violation — the escape has rotted) and redundant hotpath markers, and
// returns the result sorted by position.
func Run(prog *Program, passes []Pass) []Finding {
	known := make(map[string]bool, len(passes))
	for _, p := range passes {
		known[p.Name()] = true
	}
	// Findings route to the directive set of the package that owns their
	// file; program passes may report into any loaded package.
	dirsByPkg := make(map[*Package]*directiveSet, len(prog.Pkgs))
	dirOf := func(filename string) *directiveSet {
		for _, pkg := range prog.Pkgs {
			if d := dirsByPkg[pkg]; d != nil && d.ownsFile(filename) {
				return d
			}
		}
		return nil
	}
	for _, pkg := range prog.Pkgs {
		dirsByPkg[pkg] = pkg.directives(known)
	}
	var out []Finding
	keep := func(pass string, fs []Finding) {
		for _, f := range fs {
			if d := dirOf(f.Pos.Filename); d != nil && d.allows(pass, f.Pos) {
				continue
			}
			out = append(out, f)
		}
	}
	for _, pass := range passes {
		switch p := pass.(type) {
		case PackagePass:
			for _, pkg := range prog.Pkgs {
				keep(pass.Name(), p.Check(pkg))
			}
		case ProgramPass:
			keep(pass.Name(), p.CheckProgram(prog))
		}
	}
	for _, pkg := range prog.Pkgs {
		d := dirsByPkg[pkg]
		out = append(out, d.misuse...)
		out = append(out, d.stale()...)
	}
	out = append(out, prog.hotSet().redundant...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Pass < b.Pass
	})
	return out
}

// usedFunc returns the *types.Func an identifier resolves to, or nil.
func usedFunc(info *types.Info, id *ast.Ident) *types.Func {
	if obj, ok := info.Uses[id]; ok {
		if fn, ok := obj.(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// objPkgPath returns the import path of the package an object belongs to,
// or "" for builtins and universe-scope objects.
func objPkgPath(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	return obj.Pkg().Path()
}

// shortPos renders a position as basename:line — the form embedded in
// finding messages, so goldens stay checkout-independent.
func shortPos(pos token.Position) string {
	return fmt.Sprintf("%s:%d", filepath.Base(pos.Filename), pos.Line)
}
