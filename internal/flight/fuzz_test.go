package flight

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
)

// bundleFiles are the files FuzzLoadBundle fuzzes, in its argument order.
var bundleFiles = []string{"meta.json", "flight-vm00000.bin", "spans.bin"}

// FuzzLoadBundle feeds hostile incident bundles — a fuzzed manifest, one VM
// ring and the span ring — through LoadBundle, WriteChrome and Write.
// Bundles are outside input to every tool that loads them, so the oracles
// are: no panic; decoding allocates in proportion to the bytes read, never
// to a count a header claims; a ring or span file that decodes re-encodes to
// exactly the bytes it consumed; and a bundle that loads renders as a Chrome
// trace and round-trips: written out and loaded again, it is equal to itself.
func FuzzLoadBundle(f *testing.F) {
	em, _ := bundleHost(f)
	raised, err := Raise(em, "detection", 1, 5, nil)
	if err != nil {
		f.Fatal(err)
	}
	raised.Meta.Context = map[string]string{"seed": "1"}
	bdir := f.TempDir()
	if err := raised.Write(bdir); err != nil {
		f.Fatal(err)
	}
	var seed [3][]byte
	for i, name := range bundleFiles {
		if seed[i], err = os.ReadFile(filepath.Join(bdir, name)); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(seed[0], seed[1], seed[2])
	f.Add(seed[0], seed[1][:headerSize], seed[2][:headerSize+spanRecSize/2])

	// Two directories per fuzz process, one for the input and one for its
	// rewrite: every input overwrites the same three files in each — a
	// bundle that loads has exactly one ring and nothing optional — which
	// keeps the harness off the filesystem's slow paths.
	dir, rewritten := f.TempDir(), f.TempDir()
	f.Fuzz(func(t *testing.T, meta, ring, spans []byte) {
		decodeExits := func(r io.Reader, w io.Writer) error {
			recs, err := ReadExits(r)
			if err != nil {
				return err
			}
			return WriteExits(w, recs)
		}
		ringOK := reencodes(t, ring, decodeExits)
		spansOK := reencodes(t, spans, func(r io.Reader, w io.Writer) error {
			recs, err := ReadSpans(r)
			if err != nil {
				return err
			}
			return WriteSpans(w, recs)
		})

		for i, data := range [][]byte{meta, ring, spans} {
			if err := os.WriteFile(filepath.Join(dir, bundleFiles[i]), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		b, err := LoadBundle(dir)
		if err != nil {
			return
		}
		if !ringOK || !spansOK || len(b.Exits) != 1 {
			t.Fatalf("LoadBundle accepted a bundle whose rings do not decode (VM rings loaded: %d)", len(b.Exits))
		}
		if err := WriteChrome(io.Discard, b); err != nil {
			t.Fatalf("loaded bundle does not render: %v", err)
		}
		if err := b.Write(rewritten); err != nil {
			t.Fatalf("loaded bundle does not write: %v", err)
		}
		again, err := LoadBundle(rewritten)
		if err != nil {
			t.Fatalf("rewritten bundle does not load: %v", err)
		}
		again.Dir = b.Dir
		if !reflect.DeepEqual(again, b) {
			t.Fatalf("rewritten bundle loads as\n%+v\nwant\n%+v", again, b)
		}
	})
}

// reencodes decodes data with roundTrip, which writes what it decoded back
// out, and checks the two fuzz oracles of the codec: the decode allocates
// in proportion to data, and a successful decode re-encodes to exactly the
// bytes it consumed (the header plus whole records). It reports whether the
// decode succeeded.
func reencodes(t *testing.T, data []byte, roundTrip func(io.Reader, io.Writer) error) bool {
	t.Helper()
	var out bytes.Buffer
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := roundTrip(bytes.NewReader(data), &out)
	runtime.ReadMemStats(&after)
	// Growing by append allocates a small multiple of the decoded records;
	// the slack covers the fixed buffers and the error text.
	if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(64<<10+32*len(data)); grew > limit {
		t.Fatalf("decoding %d bytes allocated %d, over the %d-byte bound", len(data), grew, limit)
	}
	if err != nil {
		return false
	}
	if out.Len() > len(data) || !bytes.Equal(out.Bytes(), data[:out.Len()]) {
		t.Fatalf("re-encoding differs from the bytes decoded:\n got %x\nfrom %x", out.Bytes(), data)
	}
	return true
}
