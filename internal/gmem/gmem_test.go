package gmem

import (
	"errors"
	"testing"
	"testing/quick"

	"hypertap/internal/arch"
)

func TestNewValidation(t *testing.T) {
	tests := []struct {
		name    string
		size    uint64
		wantErr bool
	}{
		{"zero", 0, true},
		{"unaligned", arch.PageSize + 1, true},
		{"one page", arch.PageSize, false},
		{"1MiB", 1 << 20, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := New(tt.size)
			if (err != nil) != tt.wantErr {
				t.Fatalf("New(%d) err = %v, wantErr %v", tt.size, err, tt.wantErr)
			}
		})
	}
}

func TestMustNewPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew(0) did not panic")
		}
	}()
	MustNew(0)
}

func TestReadWriteRoundTrip(t *testing.T) {
	m := MustNew(4 * arch.PageSize)
	src := []byte("hello hypertap")
	if err := m.Write(100, src); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, len(src))
	if err := m.Read(100, dst); err != nil {
		t.Fatal(err)
	}
	if string(dst) != string(src) {
		t.Fatalf("round trip = %q, want %q", dst, src)
	}
}

func TestOutOfRange(t *testing.T) {
	m := MustNew(arch.PageSize)
	buf := make([]byte, 16)
	cases := []struct {
		name string
		fn   func() error
	}{
		{"read past end", func() error { return m.Read(arch.PageSize-8, buf) }},
		{"write past end", func() error { return m.Write(arch.PageSize-8, buf) }},
		{"read far", func() error { return m.Read(1<<40, buf) }},
		{"u64 at end", func() error { _, err := m.ReadU64(arch.PageSize - 4); return err }},
		{"u32 at end", func() error { _, err := m.ReadU32(arch.PageSize - 2); return err }},
		{"write u64 at end", func() error { return m.WriteU64(arch.PageSize-4, 1) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := c.fn(); !errors.Is(err, ErrOutOfRange) {
				t.Fatalf("err = %v, want ErrOutOfRange", err)
			}
		})
	}
}

func TestU64U32RoundTrip(t *testing.T) {
	m := MustNew(arch.PageSize)
	if err := m.WriteU64(8, 0xDEADBEEFCAFEF00D); err != nil {
		t.Fatal(err)
	}
	v, err := m.ReadU64(8)
	if err != nil || v != 0xDEADBEEFCAFEF00D {
		t.Fatalf("ReadU64 = %#x, %v", v, err)
	}
	if err := m.WriteU32(16, 0x12345678); err != nil {
		t.Fatal(err)
	}
	w, err := m.ReadU32(16)
	if err != nil || w != 0x12345678 {
		t.Fatalf("ReadU32 = %#x, %v", w, err)
	}
	// Little-endian layout check: low byte first.
	b := make([]byte, 1)
	if err := m.Read(16, b); err != nil || b[0] != 0x78 {
		t.Fatalf("little-endian low byte = %#x, want 0x78", b[0])
	}
}

func TestCStringRoundTrip(t *testing.T) {
	m := MustNew(arch.PageSize)
	if err := m.WriteCString(0, "sshd", 16); err != nil {
		t.Fatal(err)
	}
	s, err := m.ReadCString(0, 16)
	if err != nil || s != "sshd" {
		t.Fatalf("ReadCString = %q, %v", s, err)
	}
}

func TestCStringTruncates(t *testing.T) {
	m := MustNew(arch.PageSize)
	if err := m.WriteCString(0, "a-very-long-process-name", 8); err != nil {
		t.Fatal(err)
	}
	s, err := m.ReadCString(0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if s != "a-very-" {
		t.Fatalf("truncated string = %q, want %q", s, "a-very-")
	}
}

func TestCStringNoTerminator(t *testing.T) {
	m := MustNew(arch.PageSize)
	if err := m.Write(0, []byte{'a', 'b', 'c'}); err != nil {
		t.Fatal(err)
	}
	s, err := m.ReadCString(0, 3)
	if err != nil || s != "abc" {
		t.Fatalf("ReadCString without NUL = %q, %v", s, err)
	}
}

// TestCStringClampsAtEndOfMemory covers strings near the end of memory: a
// NUL-terminated string must be readable even when pa+max overruns the
// backing array, and only a string that is genuinely unterminated within
// the accessible bytes is an error.
func TestCStringClampsAtEndOfMemory(t *testing.T) {
	m := MustNew(arch.PageSize)
	last := arch.GPA(arch.PageSize - 5)
	if err := m.Write(last, []byte{'i', 'n', 'i', 't', 0}); err != nil {
		t.Fatal(err)
	}
	// max=16 overruns memory by 11 bytes, but the NUL lands inside.
	s, err := m.ReadCString(last, 16)
	if err != nil || s != "init" {
		t.Fatalf("clamped ReadCString = %q, %v; want \"init\", nil", s, err)
	}
	// Unterminated to the very end: error, not a silent truncation.
	if err := m.Write(last, []byte{'x', 'x', 'x', 'x', 'x'}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.ReadCString(last, 16); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("unterminated overrun err = %v, want ErrOutOfRange", err)
	}
	// Exactly-fitting unterminated reads keep the old semantics: the full
	// window is the string.
	s, err = m.ReadCString(last, 5)
	if err != nil || s != "xxxxx" {
		t.Fatalf("exact-fit ReadCString = %q, %v", s, err)
	}
	if _, err := m.ReadCString(arch.PageSize, 1); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("read past end err = %v, want ErrOutOfRange", err)
	}
	if _, err := m.ReadCString(0, -1); err == nil {
		t.Fatal("negative max accepted")
	}
}

func TestZero(t *testing.T) {
	m := MustNew(arch.PageSize)
	if err := m.Write(0, []byte{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	if err := m.Zero(1, 2); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 4)
	if err := m.Read(0, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 1 || got[1] != 0 || got[2] != 0 || got[3] != 4 {
		t.Fatalf("after Zero = %v, want [1 0 0 4]", got)
	}
}

// Property: writes never bleed outside their range.
func TestPropertyWriteIsolation(t *testing.T) {
	const size = 16 * arch.PageSize
	m := MustNew(size)
	f := func(off uint16, val uint64) bool {
		// Keep the write and both 8-byte guard words inside memory: a uint16
		// offset alone reaches past the 64 KiB end, where the guard reads
		// fail by design.
		pa := arch.GPA(off)%(size-24) + 8
		before, err := m.ReadU64(pa - 8)
		if err != nil {
			return false
		}
		after, err := m.ReadU64(pa + 8)
		if err != nil {
			return false
		}
		if err := m.WriteU64(pa, val); err != nil {
			return false
		}
		b2, _ := m.ReadU64(pa - 8)
		a2, _ := m.ReadU64(pa + 8)
		v, _ := m.ReadU64(pa)
		return b2 == before && a2 == after && v == val
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestZeroLengthAtEndOfMemory pins the boundary semantics at pa == Size():
// the window is addressable and empty, so zero-length reads succeed there —
// Read with an empty dst always did, and ReadCString must agree — while any
// read that needs actual bytes still fails loudly.
func TestZeroLengthAtEndOfMemory(t *testing.T) {
	m := MustNew(arch.PageSize)
	end := arch.GPA(arch.PageSize)

	if err := m.Read(end, nil); err != nil {
		t.Fatalf("zero-length Read at end = %v, want nil", err)
	}
	if err := m.Write(end, nil); err != nil {
		t.Fatalf("zero-length Write at end = %v, want nil", err)
	}
	if err := m.Zero(end, 0); err != nil {
		t.Fatalf("zero-length Zero at end = %v, want nil", err)
	}
	s, err := m.ReadCString(end, 0)
	if err != nil || s != "" {
		t.Fatalf("ReadCString(end, 0) = %q, %v; want \"\", nil", s, err)
	}
	// One byte past the end is not addressable, even for zero bytes.
	if err := m.Read(end+1, nil); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("zero-length Read past end = %v, want ErrOutOfRange", err)
	}
	if _, err := m.ReadCString(end+1, 0); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("ReadCString(end+1, 0) = %v, want ErrOutOfRange", err)
	}
	// A nonzero read at the end still has no accessible bytes and no NUL.
	if _, err := m.ReadCString(end, 8); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("ReadCString(end, 8) = %v, want ErrOutOfRange", err)
	}
}

// TestSteadyStateAccessAllocatesNothing pins the cost model: reads of
// never-written pages and writes to pages already written allocate
// nothing. Only a page's first write does, in touch.
func TestSteadyStateAccessAllocatesNothing(t *testing.T) {
	m := MustNew(64 * arch.PageSize)
	if err := m.Write(3*arch.PageSize-8, make([]byte, arch.PageSize+16)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 24)
	allocs := testing.AllocsPerRun(100, func() {
		// Never-written pages, straddles included.
		_, _ = m.ReadU64(40 * arch.PageSize)
		_, _ = m.ReadU32(41*arch.PageSize - 2)
		_ = m.Read(42*arch.PageSize-12, buf)
		_, _ = m.ReadCString(43*arch.PageSize, 16)
		_ = m.Zero(44*arch.PageSize-100, 200)
		// Pages 2 to 4, already written; straddles included.
		_ = m.WriteU64(3*arch.PageSize-4, 0x0102030405060708)
		_ = m.WriteU32(3*arch.PageSize+8, 7)
		_ = m.Write(4*arch.PageSize-12, buf)
		_ = m.WriteCString(3*arch.PageSize+16, "kworker/0:1", 16)
		_ = m.Read(3*arch.PageSize-12, buf)
	})
	if allocs != 0 {
		t.Fatalf("steady-state accesses allocated %v times per run, want 0", allocs)
	}
	if len(m.slots) != 3 {
		t.Fatalf("%d pages backed, want the 3 written", len(m.slots))
	}
}
