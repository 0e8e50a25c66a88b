package analysis

import (
	"bytes"
	"fmt"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// AllocProof turns the benchmark suite's "0 allocs/op" assertions into a
// static proof: it reruns the compiler's escape analysis (`go tool compile
// -m`) over every package that holds a hot-path function (one reachable from
// a //hypertap:hotpath root; see hotSet) and flags any value that escapes to
// the heap inside one of those functions. Benchmarks only witness the paths
// their inputs exercise; the compiler's verdict covers every branch, on
// every `make check`, before anything runs.
//
// Invoking the compiler directly — instead of `go build -gcflags=-m`, which
// prints nothing when the build cache is warm — makes the diagnostics
// unconditional. The importcfg handed to the compiler is the export map the
// loader's `go list -export -deps` run already produced, so the pass costs
// one compiler invocation per hot-path package and no extra go list round
// trips.
//
// An accepted escape carries an inline //hypertap:allow allocproof <reason>
// on its line. The allow keys on line and pass, not on the compiler's
// message text, so a toolchain that rewords a diagnostic cannot silently
// unmatch it; an escape the compiler stops reporting leaves the allow stale,
// which is itself a finding.
type AllocProof struct{}

// Name implements Pass.
func (AllocProof) Name() string { return "allocproof" }

// Doc implements Pass.
func (AllocProof) Doc() string {
	return "functions reachable from a //hypertap:hotpath root must be allocation-free by the compiler's own escape analysis, not just by the benchmarks' sampled paths"
}

// CheckProgram implements ProgramPass.
func (AllocProof) CheckProgram(prog *Program) []Finding {
	var out []Finding
	hs := prog.hotSet()
	for _, pkg := range prog.Pkgs {
		hot := hs.hotFuncs(pkg)
		if len(hot) == 0 {
			continue
		}
		diags, err := escapeDiagnostics(prog, pkg)
		if err != nil {
			out = append(out, Finding{
				Pos:  pkg.Fset.Position(pkg.Files[0].Pos()),
				Pass: "allocproof",
				Msg:  fmt.Sprintf("escape analysis of %s failed: %v", pkg.ImportPath, err),
			})
			continue
		}
		// Hot-path line ranges per file, so a diagnostic maps to the function
		// whose proof it breaks.
		type span struct {
			name     string
			from, to int
		}
		spans := make(map[string][]span)
		for _, fd := range hot {
			p := pkg.Fset.Position(fd.Pos())
			spans[p.Filename] = append(spans[p.Filename], span{
				name: fd.Name.Name,
				from: p.Line,
				to:   pkg.Fset.Position(fd.End()).Line,
			})
		}
		for _, d := range diags {
			for _, sp := range spans[d.file] {
				if d.line >= sp.from && d.line <= sp.to {
					out = append(out, Finding{
						Pos:  token.Position{Filename: d.file, Line: d.line, Column: d.col},
						Pass: "allocproof",
						Msg: fmt.Sprintf("hot-path func %s is not allocation-free: %s (compiler escape analysis)",
							sp.name, d.msg),
					})
					break
				}
			}
		}
	}
	return out
}

// escapeDiag is one parsed `-m` heap diagnostic.
type escapeDiag struct {
	file string
	line int
	col  int
	msg  string
}

// escapeDiagnostics compiles pkg with -m and returns its heap-escape lines.
func escapeDiagnostics(prog *Program, pkg *Package) ([]escapeDiag, error) {
	if len(prog.Exports) == 0 {
		return nil, fmt.Errorf("no export data available (loader ran without -export?)")
	}
	tmp, err := os.MkdirTemp("", "hypertap-vet-allocproof")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	// The importcfg is the loader's whole export map; the compiler reads only
	// the entries the package actually imports. Sorted for reproducibility.
	paths := make([]string, 0, len(prog.Exports))
	for p := range prog.Exports {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	var cfg bytes.Buffer
	for _, p := range paths {
		fmt.Fprintf(&cfg, "packagefile %s=%s\n", p, prog.Exports[p])
	}
	cfgPath := filepath.Join(tmp, "importcfg")
	if err := os.WriteFile(cfgPath, cfg.Bytes(), 0o600); err != nil {
		return nil, err
	}

	args := []string{"tool", "compile", "-m", "-p", pkg.ImportPath,
		"-importcfg", cfgPath, "-o", filepath.Join(tmp, "out.o")}
	files := make([]string, 0, len(pkg.Files))
	for _, f := range pkg.Files {
		files = append(files, pkg.Fset.Position(f.Pos()).Filename)
	}
	sort.Strings(files)
	args = append(args, files...)

	cmd := exec.Command("go", args...)
	cmd.Dir = pkg.Dir
	outBytes, err := cmd.CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("go tool compile -m: %v\n%s", err, outBytes)
	}
	return parseEscapes(string(outBytes)), nil
}

// parseEscapes extracts `file:line:col: ... heap` diagnostics from -m
// output, ignoring the inlining chatter.
func parseEscapes(out string) []escapeDiag {
	var diags []escapeDiag
	for _, line := range strings.Split(out, "\n") {
		msgStart := strings.Index(line, ": ")
		if msgStart < 0 {
			continue
		}
		msg := line[msgStart+2:]
		if !strings.Contains(msg, "escapes to heap") && !strings.Contains(msg, "moved to heap") {
			continue
		}
		file, ln, col, ok := splitPosition(line[:msgStart])
		if !ok {
			continue
		}
		diags = append(diags, escapeDiag{file: file, line: ln, col: col, msg: msg})
	}
	return diags
}

// splitPosition parses "path:line:col" (the path may contain colons only on
// exotic systems; split from the right).
func splitPosition(s string) (file string, line, col int, ok bool) {
	i := strings.LastIndexByte(s, ':')
	if i < 0 {
		return "", 0, 0, false
	}
	j := strings.LastIndexByte(s[:i], ':')
	if j < 0 {
		return "", 0, 0, false
	}
	line, err1 := strconv.Atoi(s[j+1 : i])
	col, err2 := strconv.Atoi(s[i+1:])
	if err1 != nil || err2 != nil {
		return "", 0, 0, false
	}
	return s[:j], line, col, true
}
