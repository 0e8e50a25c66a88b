package analysis

import (
	"go/ast"
	"strings"
)

// wallclockFuncs are the time-package functions that read or wait on the
// host's wall clock. Any of them inside a deterministic simulation package
// silently decouples an experiment from its seed.
var wallclockFuncs = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
}

// deterministicPkgs is the determinism contract: packages whose behavior
// must be a pure function of inputs + seed, on virtual time only
// (DESIGN.md §7). An entry ending in "/..." covers the whole subtree.
// `core` and `telemetry` are included so that their two legitimate
// real-time users — the RHC's TCP heartbeats and latency sampling — carry
// visible //hypertap:allow annotations rather than silent exemptions.
var deterministicPkgs = []string{
	"hypertap/internal/arch",
	"hypertap/internal/gmem",
	"hypertap/internal/hav",
	"hypertap/internal/guest",
	"hypertap/internal/hv",
	"hypertap/internal/vclock",
	"hypertap/internal/inject",
	"hypertap/internal/malware",
	"hypertap/internal/workload",
	"hypertap/internal/vmi",
	"hypertap/internal/core",
	"hypertap/internal/core/intercept",
	"hypertap/internal/telemetry",
	"hypertap/internal/experiment/...",
	"hypertap/internal/auditors/...",
	"hypertap/internal/flight",
	// The analyzer analyzes itself: its verdicts must be a pure function of
	// the source it reads, never of when it ran.
	"hypertap/internal/analysis",
}

// pathMatches reports whether importPath is covered by one of the entries.
func pathMatches(importPath string, entries []string) bool {
	for _, e := range entries {
		if prefix, ok := strings.CutSuffix(e, "/..."); ok {
			if importPath == prefix || strings.HasPrefix(importPath, prefix+"/") {
				return true
			}
		} else if importPath == e {
			return true
		}
	}
	return false
}

// Wallclock forbids wall-clock reads and waits in the deterministic
// simulation packages.
type Wallclock struct{}

// Name implements Pass.
func (Wallclock) Name() string { return "wallclock" }

// Doc implements Pass.
func (Wallclock) Doc() string {
	return "Experiments must be reproducible from their seed: simulation packages run on " +
		"virtual time (internal/vclock), so time.Now/Since/Sleep/After and friends are " +
		"forbidden there. Legitimately real-time code (RHC TCP heartbeats, telemetry " +
		"latency sampling) carries //hypertap:allow wallclock <reason>."
}

// Check implements Pass.
func (w Wallclock) Check(pkg *Package) []Finding {
	if !pathMatches(pkg.ImportPath, deterministicPkgs) {
		return nil
	}
	var out []Finding
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			fn := usedFunc(pkg.Info, id)
			if fn == nil || objPkgPath(fn) != "time" || !wallclockFuncs[fn.Name()] {
				return true
			}
			out = append(out, Finding{
				Pos:  pkg.Fset.Position(id.Pos()),
				Pass: w.Name(),
				Msg: "time." + fn.Name() + " breaks virtual-time determinism in " + pkg.ImportPath +
					" (use internal/vclock, or //hypertap:allow wallclock <reason> for real-time code)",
			})
			return true
		})
	}
	return out
}
