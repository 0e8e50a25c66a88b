// Command hypertap-vet mechanically enforces the repo's determinism,
// isolation, and hot-path invariants (DESIGN.md §9).
//
// Usage:
//
//	hypertap-vet [-list] [packages]
//
// With no package patterns it analyzes ./... from the current directory.
// Each finding prints as `file:line: [pass] message`; the exit status is 0
// when clean, 1 when findings exist, and 2 on analysis errors. -list
// describes the passes and exits.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"hypertap/internal/analysis"
)

func main() {
	list := flag.Bool("list", false, "list passes and their rationale, then exit")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: hypertap-vet [-list] [packages]\n\n")
		fmt.Fprintf(flag.CommandLine.Output(), "Enforces the repo's determinism, isolation and hot-path invariants.\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	passes := analysis.AllPasses()
	if *list {
		listPasses(passes)
		return
	}

	loader, err := analysis.NewLoader(".", flag.Args()...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hypertap-vet:", err)
		os.Exit(2)
	}
	pkgs, err := loader.Packages()
	if err != nil {
		fmt.Fprintln(os.Stderr, "hypertap-vet:", err)
		os.Exit(2)
	}
	findings := analysis.Run(loader.NewProgram(pkgs), passes)
	for _, f := range findings {
		fmt.Printf("%s:%d: [%s] %s\n", relPath(f.Pos.Filename), f.Pos.Line, f.Pass, f.Msg)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "hypertap-vet: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

// listPasses prints each pass name with its rationale.
func listPasses(passes []analysis.Pass) {
	for i, p := range passes {
		if i > 0 {
			fmt.Println()
		}
		fmt.Printf("%s\n", p.Name())
		fmt.Printf("    %s\n", p.Doc())
	}
}

// relPath renders a path relative to the working directory when possible —
// the form editors and CI logs link cleanly.
func relPath(path string) string {
	wd, err := os.Getwd()
	if err != nil {
		return path
	}
	rel, err := filepath.Rel(wd, path)
	if err != nil || len(rel) >= len(path) {
		return path
	}
	return rel
}
