package guest

import (
	"fmt"

	"hypertap/internal/arch"
)

// Memory management: miniOS uses single-level page directories stored in
// guest-physical memory. CR3 holds the directory base (PDBA); each of the
// arch.PDEntries slots maps one virtual page. The kernel half of every
// directory is a copy of the boot-time kernel template (as Linux copies
// kernel PGD entries into each new mm), which is what makes a fixed
// "known_gva" testable in every live address space — the validity probe of
// the paper's process-counting algorithm (Fig. 3A).

// allocLow reserves n pages in the kernel direct-map window, aligned to
// align pages (power of two).
func (k *Kernel) allocLow(n, align int) (arch.GPA, error) {
	step := arch.GPA(align) * arch.PageSize
	base := (k.lowNext + step - 1) &^ (step - 1)
	end := base + arch.GPA(n)*arch.PageSize
	if end > KernelWindowBytes {
		return 0, &windowExhaustedError{pages: n, base: base}
	}
	k.lowNext = end
	return base, nil
}

// windowExhaustedError is allocLow's failure. A guest that has used up its
// kernel window fails every later spawn, so the message is formatted only
// when someone reads it.
type windowExhaustedError struct {
	pages int
	base  arch.GPA
}

func (e *windowExhaustedError) Error() string {
	return fmt.Sprintf("guest: kernel window exhausted (need %d pages at %#x)", e.pages, uint64(e.base))
}

// allocHigh reserves n pages above the kernel window (page directories and
// user memory).
func (k *Kernel) allocHigh(n int) (arch.GPA, error) {
	base := k.highNext
	end := base + arch.GPA(n)*arch.PageSize
	if uint64(end) > k.mem.Size() {
		return 0, fmt.Errorf("guest: guest-physical memory exhausted (need %d pages at %#x)", n, uint64(base))
	}
	k.highNext = end
	return base, nil
}

// pdPages is the number of pages occupied by one page directory.
const pdPages = arch.PDBytes / arch.PageSize

// newPageDirectory allocates a page directory, installs the shared kernel
// mapping, and maps an initial user region of userPages pages.
func (k *Kernel) newPageDirectory(userPages int) (arch.GPA, error) {
	pdba, err := k.allocHigh(pdPages)
	if err != nil {
		return 0, err
	}
	if err := k.mem.Zero(pdba, arch.PDBytes); err != nil {
		return 0, err
	}
	// Kernel half: direct map, supervisor-only.
	for i := 0; i < KernelWindowPages; i++ {
		entry := uint64(i)*arch.PageSize | arch.PTEPresent | arch.PTEWritable
		slot := pdba + arch.GPA((KernelWindowPages+i)*8)
		if err := k.mem.WriteU64(slot, entry); err != nil {
			return 0, err
		}
	}
	// User region: fresh pages starting at UserBase.
	if userPages > 0 {
		base, err := k.allocHigh(userPages)
		if err != nil {
			return 0, err
		}
		for i := 0; i < userPages; i++ {
			entry := (uint64(base) + uint64(i)*arch.PageSize) |
				arch.PTEPresent | arch.PTEWritable | arch.PTEUser
			slot := pdba + arch.GPA((1+i)*8)
			if err := k.mem.WriteU64(slot, entry); err != nil {
				return 0, err
			}
		}
	}
	// The directory's entries just changed; drop any translation cached
	// for a previous occupant of these physical pages (possible after a
	// memory reset rewinds the bump allocator).
	k.tlb.flush()
	return pdba, nil
}

// clearPageDirectory marks every entry of a directory not-present. The
// kernel does this when an address space dies; stale PDBAs then fail the
// known-GVA validity probe, letting the architectural process count shrink.
func (k *Kernel) clearPageDirectory(pdba arch.GPA) error {
	if err := k.mem.Zero(pdba, arch.PDBytes); err != nil {
		return err
	}
	// Cached translations through this directory are now stale; a probe of
	// the dead address space must miss, walk, and see the cleared entries.
	k.tlb.flush()
	return nil
}

// Translate walks the page directory rooted at pdba and returns the
// guest-physical address for a guest-virtual one. It is pure software page
// walking over guest memory — the same operation the hypervisor-side helper
// API performs — fronted by the software TLB (tlb.go), which turns repeat
// translations within a directory generation into an array lookup.
func (k *Kernel) Translate(pdba arch.GPA, v arch.GVA) (arch.GPA, bool) {
	idx, ok := arch.PDIndex(v)
	if !ok {
		return 0, false
	}
	if frame, ok := k.tlb.lookup(pdba, uint64(idx)); ok {
		return frame + arch.GPA(arch.PageOffset(v)), true
	}
	entry, err := k.mem.ReadU64(pdba + arch.GPA(idx*8))
	if err != nil || entry&arch.PTEPresent == 0 {
		return 0, false
	}
	frame := arch.GPA(entry & arch.PTEAddrMask)
	k.tlb.insert(pdba, uint64(idx), frame)
	return frame + arch.GPA(arch.PageOffset(v)), true
}

// kread64 reads a u64 at a kernel direct-map GVA (no EPT check: host-mode
// style read used by kernel bookkeeping that never needs to trap).
func (k *Kernel) kread64(v arch.GVA) (uint64, error) {
	return k.mem.ReadU64(KVAToGPA(v))
}

// kwrite64 writes a u64 at a kernel direct-map GVA from CPU cpu, passing
// through the EPT permission check so that monitored pages (the TSS) trap.
func (k *Kernel) kwrite64(cpu int, v arch.GVA, val uint64) error {
	gpa := KVAToGPA(v)
	k.cpus[cpu].vcpu.CheckedAccess(gpa, v, havAccessWrite, val)
	return k.mem.WriteU64(gpa, val)
}

// kwrite32 is kwrite64 for 32-bit fields.
func (k *Kernel) kwrite32(cpu int, v arch.GVA, val uint32) error {
	gpa := KVAToGPA(v)
	k.cpus[cpu].vcpu.CheckedAccess(gpa, v, havAccessWrite, uint64(val))
	return k.mem.WriteU32(gpa, val)
}
