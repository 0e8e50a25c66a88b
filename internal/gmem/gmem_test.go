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

func TestAllocPages(t *testing.T) {
	m := MustNew(8 * arch.PageSize)
	a, err := m.AllocPages(2)
	if err != nil || a != 0 {
		t.Fatalf("first alloc = %#x, %v", uint64(a), err)
	}
	b, err := m.AllocPages(1)
	if err != nil || b != 2*arch.PageSize {
		t.Fatalf("second alloc = %#x, %v", uint64(b), err)
	}
	if got := m.AllocatedBytes(); got != 3*arch.PageSize {
		t.Fatalf("AllocatedBytes = %d", got)
	}
	if _, err := m.AllocPages(6); err == nil {
		t.Fatal("over-allocation succeeded")
	}
	if _, err := m.AllocPages(0); err == nil {
		t.Fatal("AllocPages(0) succeeded")
	}
}

func TestAllocReset(t *testing.T) {
	m := MustNew(2 * arch.PageSize)
	if _, err := m.AllocPages(2); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteU64(0, 7); err != nil {
		t.Fatal(err)
	}
	m.AllocReset()
	if got := m.AllocatedBytes(); got != 0 {
		t.Fatalf("AllocatedBytes after reset = %d", got)
	}
	v, err := m.ReadU64(0)
	if err != nil || v != 0 {
		t.Fatalf("memory not cleared after reset: %#x %v", v, err)
	}
	if a, err := m.AllocPages(1); err != nil || a != 0 {
		t.Fatalf("alloc after reset = %#x, %v", uint64(a), err)
	}
}

func TestAllocResetRunsHook(t *testing.T) {
	m := MustNew(arch.PageSize)
	calls := 0
	m.SetResetHook(func() { calls++ })
	m.AllocReset()
	m.AllocReset()
	if calls != 2 {
		t.Fatalf("reset hook ran %d times, want 2", calls)
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

// Property: AllocPages returns page-aligned, non-overlapping regions.
func TestPropertyAllocAligned(t *testing.T) {
	m := MustNew(1 << 20)
	var prevEnd arch.GPA
	for i := 1; i <= 16; i++ {
		a, err := m.AllocPages(i%4 + 1)
		if err != nil {
			t.Fatal(err)
		}
		if uint64(a)%arch.PageSize != 0 {
			t.Fatalf("allocation %#x not page aligned", uint64(a))
		}
		if a < prevEnd {
			t.Fatalf("allocation %#x overlaps previous end %#x", uint64(a), uint64(prevEnd))
		}
		prevEnd = a + arch.GPA((i%4+1)*arch.PageSize)
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

// TestAllocPagesOverflow pins the multiply-overflow guard: page counts whose
// byte size wraps uint64 must be rejected, not wrapped into a tiny "need"
// that slips past the bound check and corrupts the bump pointer.
func TestAllocPagesOverflow(t *testing.T) {
	m := MustNew(4 * arch.PageSize)
	huge := int(uint64(1)<<63/arch.PageSize) + 1
	for _, n := range []int{huge, int(^uint(0) >> 1)} {
		if _, err := m.AllocPages(n); !errors.Is(err, ErrOutOfRange) {
			t.Fatalf("AllocPages(%d) = %v, want ErrOutOfRange", n, err)
		}
	}
	if got := m.AllocatedBytes(); got != 0 {
		t.Fatalf("failed alloc moved the bump pointer: %d", got)
	}
	// The guard must not cost legitimate allocations anything: the exact
	// remaining page count still fits.
	if _, err := m.AllocPages(4); err != nil {
		t.Fatalf("exact-fit alloc after rejected overflow = %v", err)
	}
	if _, err := m.AllocPages(1); !errors.Is(err, ErrOutOfRange) {
		t.Fatal("allocation from a full memory succeeded")
	}
}
