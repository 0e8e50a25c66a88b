// Package gmem implements the simulated guest-physical memory of a virtual
// machine.
//
// This memory is the shared substrate that makes the paper's semantic-gap
// arguments honest in the reproduction: the guest kernel serializes its task
// list, task_structs, thread_infos, TSS and syscall table into these bytes;
// rootkits manipulate the same bytes (DKOM, hijacking); and both traditional
// VMI (internal/vmi) and HyperTap's auditors decode them from outside. There
// is no back channel — every out-of-VM view is derived from this memory.
//
// Memory is allocated on first write, one 4 KiB page at a time — the EPT's
// granularity — the way a host backs guest RAM only where the guest has
// dirtied it. A VM's size therefore reserves an address range; it costs
// only the pages the guest writes.
package gmem

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"

	"hypertap/internal/arch"
)

// ErrOutOfRange reports an access beyond the end of guest-physical memory.
var ErrOutOfRange = errors.New("gmem: guest-physical access out of range")

const (
	pageMask = arch.PageSize - 1
	// blockPages is the number of pages allocated at once. Blocks fill in
	// order of first write, so a VM carries at most one partly used block.
	blockPages = 16
)

// page is one backed guest page.
type page = [arch.PageSize]byte

// Memory is a page-granular guest-physical memory whose pages are backed on
// first write. A page never written reads as zero and costs nothing.
//
// The page index is a pointer-free []uint32, so the garbage collector
// never scans it however large the guest; the only pointers are one per
// backed page.
//
// Memory is not safe for concurrent mutation; the deterministic simulator
// core owns all writes. Concurrent readers (asynchronous auditors) must
// snapshot through the hypervisor helper API, which serializes access.
type Memory struct {
	size uint64
	// index maps a page number to 1 + its backing slot; 0 marks a page
	// never written.
	index []uint32
	// slots are the backed pages, in order of first write.
	slots []*page
	// spare is the unused rest of the block slots are cut from; blocks of
	// blockPages pages are allocated as they fill.
	spare []page
}

// New creates a guest-physical memory of the given size, which must be a
// positive multiple of the page size.
func New(size uint64) (*Memory, error) {
	if size == 0 || size%arch.PageSize != 0 {
		return nil, fmt.Errorf("gmem: size %d is not a positive multiple of the page size", size)
	}
	// Slot numbers are uint32 with 0 reserved, so 2^32-1 pages (16 TiB)
	// is the ceiling.
	if size/arch.PageSize >= 1<<32 {
		return nil, fmt.Errorf("gmem: size %d exceeds %d pages", size, uint64(1<<32-1))
	}
	return &Memory{size: size, index: make([]uint32, size/arch.PageSize)}, nil
}

// MustNew is New for static configurations known to be valid.
func MustNew(size uint64) *Memory {
	m, err := New(size)
	if err != nil {
		panic(err)
	}
	return m
}

// Size returns the memory size in bytes.
func (m *Memory) Size() uint64 { return m.size }

// Pages returns the number of guest-physical pages.
func (m *Memory) Pages() uint64 { return uint64(len(m.index)) }

// check validates an access of n bytes at pa. It is small enough to
// inline into every accessor; the error is built out of line. A negative n
// converts to a uint64 above any size New accepts, so it fails the length
// test.
func (m *Memory) check(pa arch.GPA, n int) error {
	if uint64(pa) > m.size || uint64(n) > m.size-uint64(pa) {
		return m.outOfRange(pa, n)
	}
	return nil
}

//go:noinline
func (m *Memory) outOfRange(pa arch.GPA, n int) error {
	return fmt.Errorf("%w: [%#x,+%d) size %#x", ErrOutOfRange, uint64(pa), n, m.size)
}

// at returns the bytes from pa to the end of its page, or nil when the
// page was never written. pa must be below Size.
func (m *Memory) at(pa arch.GPA) []byte {
	s := m.index[pa>>arch.PageShift]
	if s == 0 {
		return nil
	}
	return m.slots[s-1][pa&pageMask:]
}

// writable is at for a store: it backs the page first if needed.
func (m *Memory) writable(pa arch.GPA) []byte {
	if p := m.at(pa); p != nil {
		return p
	}
	return m.touch(pa)
}

// touch backs pa's page with the next free slot, cutting a new block when
// the last one is used up. It is the only allocating step, kept out of the
// accessors so their steady state stays allocation-free.
//
//go:noinline
func (m *Memory) touch(pa arch.GPA) []byte {
	if len(m.spare) == 0 {
		m.spare = make([]page, blockPages)
	}
	p := &m.spare[0]
	m.spare = m.spare[1:]
	m.slots = append(m.slots, p)
	m.index[pa>>arch.PageShift] = uint32(len(m.slots))
	return p[pa&pageMask:]
}

// read copies memory at pa into dst; the range must be checked.
func (m *Memory) read(pa arch.GPA, dst []byte) {
	for len(dst) > 0 {
		n := min(len(dst), int(arch.PageSize-uint64(pa)&pageMask))
		if p := m.at(pa); p != nil {
			copy(dst[:n], p)
		} else {
			clear(dst[:n])
		}
		dst = dst[n:]
		pa += arch.GPA(n)
	}
}

// write copies src into memory at pa; the range must be checked.
func write[S []byte | string](m *Memory, pa arch.GPA, src S) {
	for len(src) > 0 {
		n := copy(m.writable(pa), src)
		src = src[n:]
		pa += arch.GPA(n)
	}
}

// Read copies len(dst) bytes starting at pa into dst.
func (m *Memory) Read(pa arch.GPA, dst []byte) error {
	if err := m.check(pa, len(dst)); err != nil {
		return err
	}
	m.read(pa, dst)
	return nil
}

// Write copies src into memory starting at pa.
func (m *Memory) Write(pa arch.GPA, src []byte) error {
	if err := m.check(pa, len(src)); err != nil {
		return err
	}
	write(m, pa, src)
	return nil
}

// ReadU64 reads a little-endian 64-bit value at pa.
func (m *Memory) ReadU64(pa arch.GPA) (uint64, error) {
	if err := m.check(pa, 8); err != nil {
		return 0, err
	}
	if p := m.at(pa); len(p) >= 8 {
		return binary.LittleEndian.Uint64(p), nil
	}
	var b [8]byte
	m.read(pa, b[:])
	return binary.LittleEndian.Uint64(b[:]), nil
}

// WriteU64 writes a little-endian 64-bit value at pa.
func (m *Memory) WriteU64(pa arch.GPA, v uint64) error {
	if err := m.check(pa, 8); err != nil {
		return err
	}
	if p := m.writable(pa); len(p) >= 8 {
		binary.LittleEndian.PutUint64(p, v)
		return nil
	}
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	write(m, pa, b[:])
	return nil
}

// ReadU32 reads a little-endian 32-bit value at pa.
func (m *Memory) ReadU32(pa arch.GPA) (uint32, error) {
	if err := m.check(pa, 4); err != nil {
		return 0, err
	}
	if p := m.at(pa); len(p) >= 4 {
		return binary.LittleEndian.Uint32(p), nil
	}
	var b [4]byte
	m.read(pa, b[:])
	return binary.LittleEndian.Uint32(b[:]), nil
}

// WriteU32 writes a little-endian 32-bit value at pa.
func (m *Memory) WriteU32(pa arch.GPA, v uint32) error {
	if err := m.check(pa, 4); err != nil {
		return err
	}
	if p := m.writable(pa); len(p) >= 4 {
		binary.LittleEndian.PutUint32(p, v)
		return nil
	}
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	write(m, pa, b[:])
	return nil
}

// ReadCString reads a NUL-terminated string of at most max bytes at pa. The
// window is clamped to the end of memory: a string that terminates before
// memory runs out is readable even when pa+max would overrun, matching how
// a byte-at-a-time reader would behave. ErrOutOfRange is returned only when
// no NUL appears in the accessible bytes.
func (m *Memory) ReadCString(pa arch.GPA, max int) (string, error) {
	if max < 0 {
		return "", fmt.Errorf("gmem: ReadCString with negative max %d", max)
	}
	// pa == size is a legal zero-length window (mirroring Read with an empty
	// dst there); only addresses strictly past the end are unreachable.
	if uint64(pa) > m.size {
		return "", fmt.Errorf("%w: read %d bytes at %#x", ErrOutOfRange, max, uint64(pa))
	}
	clamped := false
	if rem := m.size - uint64(pa); uint64(max) > rem {
		max = int(rem)
		clamped = true
	}
	// A string inside one page converts straight from the backing bytes;
	// only one that crosses a page boundary is gathered into s.
	var s []byte
	for a, end := pa, pa+arch.GPA(max); a < end; {
		p := m.at(a)
		if p == nil {
			// A page never written is all zero: the NUL is here.
			return string(s), nil
		}
		p = p[:min(uint64(len(p)), uint64(end-a))]
		if i := bytes.IndexByte(p, 0); i >= 0 {
			if s == nil {
				return string(p[:i]), nil
			}
			return string(append(s, p[:i]...)), nil
		}
		s = append(s, p...)
		a += arch.GPA(len(p))
	}
	if clamped {
		return "", fmt.Errorf("%w: unterminated string at %#x runs past end of memory", ErrOutOfRange, uint64(pa))
	}
	return string(s), nil
}

// WriteCString writes s NUL-terminated into a field of exactly size bytes,
// truncating if necessary.
func (m *Memory) WriteCString(pa arch.GPA, s string, size int) error {
	if size <= 0 {
		return fmt.Errorf("gmem: WriteCString with non-positive size %d", size)
	}
	if err := m.check(pa, size); err != nil {
		return err
	}
	m.zero(pa, size)
	write(m, pa, s[:min(len(s), size-1)])
	return nil
}

// Zero clears n bytes starting at pa. Pages never written stay unbacked.
func (m *Memory) Zero(pa arch.GPA, n int) error {
	if err := m.check(pa, n); err != nil {
		return err
	}
	m.zero(pa, n)
	return nil
}

// zero clears n checked bytes at pa.
func (m *Memory) zero(pa arch.GPA, n int) {
	for n > 0 {
		k := min(n, int(arch.PageSize-uint64(pa)&pageMask))
		if p := m.at(pa); p != nil {
			clear(p[:k])
		}
		n -= k
		pa += arch.GPA(k)
	}
}
