package analysis

import (
	"path/filepath"
	"strings"
	"testing"
)

// allocproof is deliberately absent from the golden corpus: its messages
// quote compiler diagnostics, which vary with the toolchain. These tests
// assert the stable facts instead — which functions are charged, not the
// compiler's prose.

// loadFixtureProgram loads one fixture directory as a single-package
// program under importPath.
func loadFixtureProgram(t *testing.T, fixture, importPath string) *Program {
	t.Helper()
	l := fixtureLoader(t)
	dir, err := filepath.Abs(filepath.Join("testdata", "src", fixture))
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := l.LoadDir(dir, importPath)
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	return l.NewProgram([]*Package{pkg})
}

// TestAllocProofFlagsHotpathEscape pins the pass's two scoping decisions:
// the escape in a hot-path root is a finding, the identical one in a
// function nothing marked reaches is not.
func TestAllocProofFlagsHotpathEscape(t *testing.T) {
	findings := AllocProof{}.CheckProgram(loadFixtureProgram(t, "allocproof_bad", "hypertap/internal/allocfixture"))
	if len(findings) == 0 {
		t.Fatal("expected at least one finding for the hotpath escape, got none")
	}
	for _, f := range findings {
		if !strings.Contains(f.Msg, "hot-path func escapes") {
			t.Errorf("finding charged to the wrong function: %s", f.Msg)
		}
		if strings.Contains(f.Msg, "cold") {
			t.Errorf("unmarked function cold must not be charged: %s", f.Msg)
		}
	}
}

// TestAllocProofAcceptsCleanHotpath proves the absence side: a hotpath
// function with no escapes yields no findings.
func TestAllocProofAcceptsCleanHotpath(t *testing.T) {
	findings := AllocProof{}.CheckProgram(loadFixtureProgram(t, "allocproof_clean", "hypertap/internal/allocfixture"))
	if len(findings) != 0 {
		t.Fatalf("expected no findings for the allocation-free hotpath, got %v", findings)
	}
}

// TestAllocProofAcceptsCaptureTap pins the capture plane's hot-path promise
// in fixture form: a recorder tap shaped like capture.Recorder.recordEvent —
// gated buffer writes, a reached but allocation-free flush, an allocating
// emit helper nothing on the path calls — charges nothing to the hot path.
// If the real recorder grows an allocation, `make vet` catches it on the
// real tree; this fixture keeps the pass itself honest about the shape it
// must accept.
func TestAllocProofAcceptsCaptureTap(t *testing.T) {
	findings := AllocProof{}.CheckProgram(loadFixtureProgram(t, "hotpath_capture", "hypertap/internal/capture"))
	for _, f := range findings {
		if strings.Contains(f.Msg, "recordEvent") {
			t.Errorf("allocation charged to the recorder tap: %s", f.Msg)
		}
		if strings.Contains(f.Msg, "emitHeader") || strings.Contains(f.Msg, "flush") {
			t.Errorf("helper charged without an escape on the hot path: %s", f.Msg)
		}
	}
}
