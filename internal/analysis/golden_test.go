package analysis

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files under testdata/golden")

var (
	loaderOnce   sync.Once
	sharedLoader *Loader
	loaderErr    error
)

// fixtureLoader builds one Loader over the whole module so fixture packages
// can resolve real imports (time, math/rand, hypertap/internal/guest, ...)
// from compiled export data. go list runs once per test binary.
func fixtureLoader(t *testing.T) *Loader {
	t.Helper()
	loaderOnce.Do(func() {
		root, err := moduleRoot()
		if err != nil {
			loaderErr = err
			return
		}
		sharedLoader, loaderErr = NewLoader(root, "./...")
	})
	if loaderErr != nil {
		t.Fatalf("building fixture loader: %v", loaderErr)
	}
	return sharedLoader
}

// moduleRoot walks up from the test's working directory to the directory
// holding go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above %s", dir)
		}
		dir = parent
	}
}

// TestGolden runs every pass over each fixture package and compares the
// rendered findings against testdata/golden/<fixture>.txt. The importPath
// a fixture is loaded under decides which path-scoped rules apply, so the
// same corpus exercises deterministic packages, auditors, and exempt cmd/
// paths. Run with -update to rewrite the goldens.
func TestGolden(t *testing.T) {
	cases := []struct {
		fixture    string
		importPath string
	}{
		// wallclock: violations, escapes (same-line, line-above, wrong
		// pass name), and a cmd/ path outside the deterministic set.
		{"wallclock_bad", "hypertap/internal/guest"},
		{"wallclock_allow", "hypertap/internal/vclock"},
		{"wallclock_exempt", "hypertap/cmd/fixture"},
		// seededrand applies module-wide; the allow fixture also holds a
		// reason-less directive that must surface as misuse.
		{"seededrand_bad", "hypertap/internal/experiment"},
		{"seededrand_allow", "hypertap/internal/workload"},
		// directive misuse: typo'd pass, missing pass name, unknown verb.
		{"directive_bad", "hypertap/internal/core"},
		// eventsonly only fires under auditors/ paths.
		{"eventsonly_bad", "hypertap/internal/auditors/fixture"},
		{"eventsonly_fileallow", "hypertap/internal/auditors/baseline"},
		// hotpath checks what a marked root reaches, path-independently.
		{"hotpath_bad", "hypertap/internal/hv"},
		{"hotpath_allow", "hypertap/internal/telemetry"},
		// reachability: an unmarked reached helper is flagged, an unreached
		// twin is not, and a marker on a reached function is redundant.
		{"hotpath_reach", "hypertap/internal/hav"},
		// the fleet refactor's VM-indexed publish path: the clean function
		// must stay finding-free; the map-routing variant must not.
		{"hotpath_vmroute", "hypertap/internal/core"},
		// the exit-stream capture tap: the recorder root's unmarked tick
		// helper is checked because the root reaches it; the cold emitter
		// nothing on the path calls is not.
		{"hotpath_capture", "hypertap/internal/capture"},
		// multi-file package: allow-file in a.go must not cover b.go.
		{"multifile", "hypertap/internal/gmem"},
		// lockdiscipline: every critical-section rule (channel ops, I/O,
		// lock order, transitive summaries, flight-ring single-writer,
		// hot-path batch acquires) plus the clean idioms that must not fire.
		{"lockdiscipline_bad", "hypertap/internal/core"},
		// lockdiscipline escapes: per-pass suppression on a two-finding
		// line, and a stale allow surfacing as its own finding.
		{"lockdiscipline_allow", "hypertap/internal/core"},
		// seedflow: literal and wall-clock seeds, the interprocedural chase
		// to a caller's literal, and the clean config-field thread.
		{"seedflow_bad", "hypertap/internal/experiment"},
		// vmisolation: host reach-through, self-built introspector, and
		// Event.VM keying in a default (VM-scoped) auditor.
		{"vmisolation_bad", "hypertap/internal/auditors/isolation"},
		// vmisolation: the declared fleet scope legitimizes VM-keyed state.
		{"vmisolation_fleet", "hypertap/internal/auditors/fleetwatch2"},
	}
	l := fixtureLoader(t)
	for _, tc := range cases {
		t.Run(tc.fixture, func(t *testing.T) {
			dir, err := filepath.Abs(filepath.Join("testdata", "src", tc.fixture))
			if err != nil {
				t.Fatal(err)
			}
			pkg, err := l.LoadDir(dir, tc.importPath)
			if err != nil {
				t.Fatalf("loading fixture: %v", err)
			}
			got := renderFindings(dir, Run(l.NewProgram([]*Package{pkg}), fixturePasses()))
			goldenPath := filepath.Join("testdata", "golden", tc.fixture+".txt")
			if *update {
				if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatalf("missing golden (run go test -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("findings mismatch\n--- got ---\n%s--- want ---\n%s", got, want)
			}
		})
	}
}

// fixturePasses is the default fixture pass set: everything except
// allocproof, whose messages quote compiler diagnostics and so vary with the
// toolchain — it gets its own fixtures (see allocproof_test.go) that assert
// on stable facts instead of golden-matching compiler prose.
func fixturePasses() []Pass {
	var out []Pass
	for _, p := range AllPasses() {
		if p.Name() == "allocproof" {
			continue
		}
		out = append(out, p)
	}
	return out
}

// renderFindings formats findings with paths relative to the fixture dir so
// goldens are stable across checkouts.
func renderFindings(dir string, fs []Finding) string {
	var b strings.Builder
	for _, f := range fs {
		rel, err := filepath.Rel(dir, f.Pos.Filename)
		if err != nil {
			rel = f.Pos.Filename
		}
		fmt.Fprintf(&b, "%s:%d: [%s] %s\n", filepath.ToSlash(rel), f.Pos.Line, f.Pass, f.Msg)
	}
	return b.String()
}

// TestPathMatches pins the "/..." wildcard semantics the wallclock and
// eventsonly scoping relies on.
func TestPathMatches(t *testing.T) {
	cases := []struct {
		path    string
		entries []string
		want    bool
	}{
		{"hypertap/internal/core", []string{"hypertap/internal/core"}, true},
		{"hypertap/internal/core/intercept", []string{"hypertap/internal/core"}, false},
		{"hypertap/internal/auditors/goshd", []string{"hypertap/internal/auditors/..."}, true},
		{"hypertap/internal/auditors", []string{"hypertap/internal/auditors/..."}, true},
		{"hypertap/internal/auditorsfoo", []string{"hypertap/internal/auditors/..."}, false},
	}
	for _, tc := range cases {
		if got := pathMatches(tc.path, tc.entries); got != tc.want {
			t.Errorf("pathMatches(%q, %v) = %v, want %v", tc.path, tc.entries, got, tc.want)
		}
	}
}
