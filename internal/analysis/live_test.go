package analysis

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestPassesLiveOnRealTree proves every pass still bites on the code it
// guards, not only on fixtures: each case copies one real package into a
// temporary directory, applies one scripted mutation, loads the copy under
// the package's real import path — beside any unmutated real packages the
// case names — and requires exactly one finding, from the pass the mutation
// breaks. The unmutated tree is clean, so that finding is
// the mutation's; a pass no mutation of the real tree can trigger guards
// nothing and is a candidate for deletion.
func TestPassesLiveOnRealTree(t *testing.T) {
	// An edit inserts code after the line holding anchor in file; with no
	// anchor, file is a new file holding code.
	type edit struct{ file, anchor, code string }
	cases := []struct {
		name string
		pass string
		// dir is the package directory relative to the module root.
		dir   string
		edits []edit
		// with names real packages loaded unmutated into the same program.
		with []string
	}{
		{
			name:  "wall clock in an auditor",
			pass:  "wallclock",
			dir:   "internal/auditors/goshd",
			edits: []edit{{"mutation.go", "", "package goshd\n\nimport \"time\"\n\nfunc mutationNow() int64 { return time.Now().UnixNano() }\n"}},
		},
		{
			name:  "unseeded rand in a campaign",
			pass:  "seededrand",
			dir:   "internal/experiment",
			edits: []edit{{"mutation.go", "", "package experiment\n\nimport \"math/rand\"\n\nfunc mutationRoll() int { return rand.Intn(6) }\n"}},
		},
		{
			name:  "literal campaign seed",
			pass:  "seedflow",
			dir:   "internal/experiment",
			edits: []edit{{"mutation.go", "", "package experiment\n\nimport \"math/rand\"\n\nfunc mutationRNG() *rand.Rand { return rand.New(rand.NewSource(42)) }\n"}},
		},
		{
			name:  "auditor reads simulator truth",
			pass:  "eventsonly",
			dir:   "internal/auditors/goshd",
			edits: []edit{{"mutation.go", "", "package goshd\n\nimport \"hypertap/internal/guest\"\n\nfunc mutationPeek(k *guest.Kernel) bool { return k != nil }\n"}},
		},
		{
			name:  "VM-scoped auditor keys state by Event.VM",
			pass:  "vmisolation",
			dir:   "internal/auditors/goshd",
			edits: []edit{{"mutation.go", "", "package goshd\n\nimport \"hypertap/internal/core\"\n\nfunc mutationSlot(ev *core.Event) int { return int(ev.VM) }\n"}},
		},
		{
			name:  "map range in PublishBatch",
			pass:  "hotpath",
			dir:   "internal/core",
			edits: []edit{{"em.go", "func (m *Multiplexer) PublishBatch(", "\tfor range map[int]int(nil) {\n\t}\n"}},
		},
		{
			name:  "append in an unmarked callee of HandleExit",
			pass:  "hotpath",
			dir:   "internal/core/intercept",
			edits: []edit{{"engine.go", "func (e *Engine) decodeSyscall(", "\tvar nrs []uint32\n\tnrs = append(nrs, 1)\n\t_ = nrs\n"}},
		},
		{
			name: "heap escape in an unmarked callee of HandleExit",
			pass: "allocproof",
			dir:  "internal/core/intercept",
			edits: []edit{
				{"engine.go", "func (e *Engine) decodeSyscall(", "\tmutationSink = new(uint64)\n"},
				{"mutation.go", "", "package intercept\n\nvar mutationSink *uint64\n"},
			},
		},
		{
			name:  "append in a gmem callee reached only from a guest root",
			pass:  "hotpath",
			dir:   "internal/gmem",
			edits: []edit{{"gmem.go", "func (m *Memory) check(", "\tvar pages []uint64\n\tpages = append(pages, 1)\n\t_ = pages\n"}},
			with:  []string{"internal/guest"},
		},
		{
			name:  "channel send under the EM lock",
			pass:  "lockdiscipline",
			dir:   "internal/core",
			edits: []edit{{"mutation.go", "", "package core\n\nfunc (m *Multiplexer) mutationSend(ch chan int) {\n\tm.mu.Lock()\n\tch <- 1\n\tm.mu.Unlock()\n}\n"}},
		},
	}
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	l := fixtureLoader(t)
	covered := map[string]bool{}
	for _, tc := range cases {
		covered[tc.pass] = true
		t.Run(tc.name, func(t *testing.T) {
			dir := copyPackage(t, filepath.Join(root, tc.dir))
			for _, e := range tc.edits {
				path := filepath.Join(dir, e.file)
				if e.anchor == "" {
					writeFile(t, path, e.code)
					continue
				}
				src, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				s := string(src)
				if n := strings.Count(s, e.anchor); n != 1 {
					t.Fatalf("anchor %q occurs %d times in %s, want once", e.anchor, n, e.file)
				}
				at := strings.Index(s, e.anchor)
				at += strings.IndexByte(s[at:], '\n') + 1
				writeFile(t, path, s[:at]+e.code+s[at:])
			}
			pkg, err := l.LoadDir(dir, "hypertap/"+filepath.ToSlash(tc.dir))
			if err != nil {
				t.Fatalf("loading mutated copy: %v", err)
			}
			pkgs := []*Package{pkg}
			for _, w := range tc.with {
				p, err := l.LoadDir(copyPackage(t, filepath.Join(root, w)), "hypertap/"+w)
				if err != nil {
					t.Fatalf("loading %s: %v", w, err)
				}
				pkgs = append(pkgs, p)
			}
			got := Run(l.NewProgram(pkgs), AllPasses())
			if len(got) != 1 || got[0].Pass != tc.pass {
				t.Fatalf("want exactly one %s finding, got %d:\n%s", tc.pass, len(got), renderFindings(dir, got))
			}
		})
	}
	for _, p := range AllPasses() {
		if !covered[p.Name()] {
			t.Errorf("pass %s has no real-tree mutation", p.Name())
		}
	}
}

// copyPackage copies the non-test Go files of the package in src into a
// fresh temporary directory and returns it.
func copyPackage(t *testing.T, src string) string {
	t.Helper()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	dst := t.TempDir()
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, name))
		if err != nil {
			t.Fatal(err)
		}
		writeFile(t, filepath.Join(dst, name), string(b))
	}
	return dst
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}
