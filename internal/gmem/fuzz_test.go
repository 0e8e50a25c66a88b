package gmem

import (
	"encoding/binary"
	"fmt"
	"testing"

	"hypertap/internal/arch"
)

// flat is the reference model: guest memory as one zeroed []byte, with the
// accessors' exact bounds rules and error text.
type flat []byte

func (f flat) check(pa arch.GPA, n int) error {
	if n < 0 || uint64(pa) > uint64(len(f)) || uint64(n) > uint64(len(f))-uint64(pa) {
		return fmt.Errorf("%w: [%#x,+%d) size %#x", ErrOutOfRange, uint64(pa), n, len(f))
	}
	return nil
}

func (f flat) readCString(pa arch.GPA, max int) (string, error) {
	if max < 0 {
		return "", fmt.Errorf("gmem: ReadCString with negative max %d", max)
	}
	if uint64(pa) > uint64(len(f)) {
		return "", fmt.Errorf("%w: read %d bytes at %#x", ErrOutOfRange, max, uint64(pa))
	}
	clamped := false
	if rem := uint64(len(f)) - uint64(pa); uint64(max) > rem {
		max = int(rem)
		clamped = true
	}
	raw := f[pa : uint64(pa)+uint64(max)]
	for i, b := range raw {
		if b == 0 {
			return string(raw[:i]), nil
		}
	}
	if clamped {
		return "", fmt.Errorf("%w: unterminated string at %#x runs past end of memory", ErrOutOfRange, uint64(pa))
	}
	return string(raw), nil
}

func (f flat) writeCString(pa arch.GPA, s string, size int) error {
	if size <= 0 {
		return fmt.Errorf("gmem: WriteCString with non-positive size %d", size)
	}
	if err := f.check(pa, size); err != nil {
		return err
	}
	field := f[pa : uint64(pa)+uint64(size)]
	clear(field)
	copy(field[:size-1], s)
	return nil
}

// fuzzPages spans three backing blocks, so slot lookup crosses blocks.
const fuzzPages = 2*blockPages + 3

// long, set in an op's kind byte, scales its length to cross pages.
const long = 0x80

// fuzzOp is one decoded accessor call.
type fuzzOp struct {
	kind byte
	pa   arch.GPA
	n    int
	data []byte
}

// decodeOps turns fuzz input into accessor calls, 5 bytes of header each
// (kind, a placement byte, two bytes of offset and a length byte) followed
// by as many payload bytes as the length asks. The placement weights the
// cases the paged layout must get right: accesses that straddle a page
// boundary, that end at or overrun the end of memory, and that start far
// outside it.
func decodeOps(in []byte) []fuzzOp {
	const size = fuzzPages * arch.PageSize
	var ops []fuzzOp
	for len(in) >= 5 {
		kind, place, off, ln := in[0], in[1], binary.LittleEndian.Uint16(in[2:]), in[4]
		in = in[5:]
		var pa int64
		switch place % 4 {
		case 0: // anywhere, a little past the end included
			pa = int64(off) * (size + 64) / (1 << 16)
		case 1: // around a page boundary
			pa = int64(place/4%(fuzzPages+1))*arch.PageSize + int64(int8(off))
		case 2: // around the end of memory
			pa = size - int64(int8(off))
		case 3: // far outside
			pa = size + int64(off)<<20
		}
		op := fuzzOp{kind: kind & 0x7f % 9, pa: arch.GPA(max(pa, 0)), n: int(int8(ln))}
		if kind&long != 0 {
			op.n = int(ln) * 64 // long enough to cross several pages
		}
		// Payload: the next bytes of input, so NULs and their absence
		// both occur.
		k := min(max(op.n, 0), len(in), 512)
		op.data, in = in[:k:k], in[k:]
		ops = append(ops, op)
	}
	return ops
}

// FuzzMemory applies random accessor sequences to a paged Memory and to the
// flat model and requires identical results, errors and bytes. It also
// requires that only pages a write reached are backed.
func FuzzMemory(f *testing.F) {
	seed := func(ops ...[]byte) {
		var in []byte
		for _, op := range ops {
			in = append(in, op...)
		}
		f.Add(in)
	}
	// Header: kind, place, offset (little-endian), length; then payload.
	op := func(kind, place byte, off uint16, n byte, payload ...byte) []byte {
		return append([]byte{kind, place, byte(off), byte(off >> 8), n}, payload...)
	}
	const boundary = 1 // place: around the page boundary place/4
	const end = 2      // place: around the end of memory
	const far = 3      // place: far outside
	word := []byte{'a', 'b', 'c', 'd', 'e', 'f', 'g', 'h'}
	// Every accessor at every offset that straddles a page boundary, first
	// into never-written pages, then over written ones.
	for d := 1; d <= 8; d++ {
		off := uint16(-d) & 0xff
		var in []byte
		for kind := byte(0); kind < 9; kind++ {
			in = append(in, op(kind, boundary+4*byte(d), off, 8, word...)...)
		}
		for kind := byte(0); kind < 9; kind++ {
			in = append(in, op(kind, boundary+4*byte(d+8), off, 8, word...)...)
		}
		f.Add(in)
	}
	// Strings that cross a page, including into a never-written page, and
	// across the boundary between two backing blocks.
	seed(op(6, boundary+4*3, 0xfe, 5, 'i', 'n', 'i', 't', 0), op(7, boundary+4*3, 0xfe, 16))
	seed(op(1, boundary+4*4, 0xfc, 4, 'a', 'b', 'c', 'd'), op(7, boundary+4*4, 0xfc, 16), op(7, boundary+4*4, 0xfc, 4))
	seed(op(1, boundary+4*blockPages, 0xff, 2, 'x', 'y'), op(0, boundary+4*blockPages, 0xff, 2))
	// The end of memory: exact fits, overruns by one byte, unterminated
	// strings and zero-length accesses at Size.
	var edge []byte
	for kind := byte(0); kind < 9; kind++ {
		edge = append(edge, op(kind, end, 8, 8, word...)...)
		edge = append(edge, op(kind, end, 7, 8, word...)...)
		edge = append(edge, op(kind, end, 3, 4, word[:4]...)...)
	}
	f.Add(edge)
	seed(op(1, end, 8, 8, word...), op(7, end, 8, 16), op(7, end, 8, 8), op(2, end, 4, 0), op(4, end, 2, 0))
	seed(op(0, end, 0, 0), op(1, end, 0, 0), op(8, end, 0, 0), op(7, end, 0, 0), op(7, end, 0, 8), op(3, end, 0xff, 0))
	// Far outside, and negative and multi-page lengths.
	seed(op(0, far, 1, 4), op(7, far, 0, 0), op(8, 0, 0x100, 0xff), op(6, 0, 0x100, 0), op(7, 0, 0x100, 0xf0))
	seed(op(long|1, boundary+4*5, 0x80, 100), op(long|8, boundary+4*5, 0, 3), op(long|0, boundary+4*4, 0x10, 130))
	// Zeroing never-written pages must not back them.
	seed(op(long|8, boundary+4*20, 0, 200), op(8, end, 0x40, 0x40), op(long|0, boundary+4*20, 0, 16))
	// Every page written, so the slots fill all three blocks, then read.
	var all []byte
	for p := byte(0); p < fuzzPages; p++ {
		all = append(all, op(3, boundary+4*p, 0, 0)...)
	}
	for p := byte(0); p < fuzzPages; p++ {
		all = append(all, op(2, boundary+4*p, 0, 0)...)
	}
	f.Add(all)

	f.Fuzz(func(t *testing.T, in []byte) {
		m := MustNew(fuzzPages * arch.PageSize)
		ref := make(flat, fuzzPages*arch.PageSize)
		wrote := make([]bool, fuzzPages)
		mark := func(pa arch.GPA, n int) {
			for p := uint64(pa) >> arch.PageShift; n > 0 && p<<arch.PageShift < uint64(pa)+uint64(n); p++ {
				wrote[p] = true
			}
		}
		for i, op := range decodeOps(in) {
			var got, want string
			switch op.kind {
			case 0:
				g, w := make([]byte, max(op.n, 0)), make([]byte, max(op.n, 0))
				for i := range g {
					g[i], w[i] = 0xa5, 0xa5 // Read must overwrite every byte
				}
				err := m.Read(op.pa, g)
				rerr := ref.check(op.pa, len(w))
				if rerr == nil {
					copy(w, ref[op.pa:])
				}
				got, want = fmt.Sprintf("%q %v", g, err), fmt.Sprintf("%q %v", w, rerr)
			case 1:
				err := m.Write(op.pa, op.data)
				rerr := ref.check(op.pa, len(op.data))
				if rerr == nil {
					copy(ref[op.pa:], op.data)
					mark(op.pa, len(op.data))
				}
				got, want = fmt.Sprint(err), fmt.Sprint(rerr)
			case 2:
				v, err := m.ReadU64(op.pa)
				var w uint64
				rerr := ref.check(op.pa, 8)
				if rerr == nil {
					w = binary.LittleEndian.Uint64(ref[op.pa:])
				}
				got, want = fmt.Sprint(v, err), fmt.Sprint(w, rerr)
			case 3:
				v := uint64(op.pa)*0x9e3779b97f4a7c15 | 1
				err := m.WriteU64(op.pa, v)
				rerr := ref.check(op.pa, 8)
				if rerr == nil {
					binary.LittleEndian.PutUint64(ref[op.pa:], v)
					mark(op.pa, 8)
				}
				got, want = fmt.Sprint(err), fmt.Sprint(rerr)
			case 4:
				v, err := m.ReadU32(op.pa)
				var w uint32
				rerr := ref.check(op.pa, 4)
				if rerr == nil {
					w = binary.LittleEndian.Uint32(ref[op.pa:])
				}
				got, want = fmt.Sprint(v, err), fmt.Sprint(w, rerr)
			case 5:
				v := uint32(op.pa)*0x9e3779b9 | 1
				err := m.WriteU32(op.pa, v)
				rerr := ref.check(op.pa, 4)
				if rerr == nil {
					binary.LittleEndian.PutUint32(ref[op.pa:], v)
					mark(op.pa, 4)
				}
				got, want = fmt.Sprint(err), fmt.Sprint(rerr)
			case 6:
				size := op.n
				err := m.WriteCString(op.pa, string(op.data), size)
				rerr := ref.writeCString(op.pa, string(op.data), size)
				if rerr == nil {
					mark(op.pa, min(len(op.data), size-1))
				}
				got, want = fmt.Sprint(err), fmt.Sprint(rerr)
			case 7:
				s, err := m.ReadCString(op.pa, op.n)
				w, rerr := ref.readCString(op.pa, op.n)
				got, want = fmt.Sprintf("%q %v", s, err), fmt.Sprintf("%q %v", w, rerr)
			case 8:
				err := m.Zero(op.pa, op.n)
				rerr := ref.check(op.pa, op.n)
				if rerr == nil {
					clear(ref[op.pa : uint64(op.pa)+uint64(op.n)])
				}
				got, want = fmt.Sprint(err), fmt.Sprint(rerr)
			}
			if got != want {
				t.Fatalf("op %d (%+v): got %s, want %s", i, op, got, want)
			}
		}
		all := make([]byte, len(ref))
		if err := m.Read(0, all); err != nil {
			t.Fatal(err)
		}
		if string(all) != string(ref) {
			t.Fatal("memory contents diverge from the flat model")
		}
		for p, slot := range m.index {
			if slot != 0 && !wrote[p] {
				t.Fatalf("page %d is backed but no write reached it", p)
			}
		}
	})
}
