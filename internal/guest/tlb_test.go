package guest

import (
	"testing"

	"hypertap/internal/arch"
	"hypertap/internal/telemetry"
)

// kernelHalfGVA is a kernel-half virtual address every booted address space
// maps (the first page of the shared kernel window mapping).
const kernelHalfGVA = arch.GVA(KernelWindowPages * arch.PageSize)

func TestTLBCachesTranslations(t *testing.T) {
	vm := newTestVM(t, 1, nil)
	k := vm.k
	pdba := k.cpus[0].activePDBA

	base := k.TLBStats()
	gpa1, ok := k.Translate(pdba, kernelHalfGVA)
	if !ok {
		t.Fatalf("Translate(%#x) failed", uint64(kernelHalfGVA))
	}
	after1 := k.TLBStats()
	if after1.Misses != base.Misses+1 {
		t.Fatalf("first translation: misses %d -> %d, want one new miss", base.Misses, after1.Misses)
	}

	gpa2, ok := k.Translate(pdba, kernelHalfGVA)
	if !ok || gpa2 != gpa1 {
		t.Fatalf("repeat Translate = (%#x, %v), want (%#x, true)", uint64(gpa2), ok, uint64(gpa1))
	}
	after2 := k.TLBStats()
	if after2.Hits != after1.Hits+1 || after2.Misses != after1.Misses {
		t.Fatalf("repeat translation: stats %+v -> %+v, want exactly one new hit", after1, after2)
	}

	// Same page, different offset: still a hit, offset preserved.
	gpa3, ok := k.Translate(pdba, kernelHalfGVA+8)
	if !ok || gpa3 != gpa1+8 {
		t.Fatalf("offset Translate = (%#x, %v), want (%#x, true)", uint64(gpa3), ok, uint64(gpa1+8))
	}
}

func TestTLBClearPageDirectoryInvalidates(t *testing.T) {
	vm := newTestVM(t, 1, nil)
	k := vm.k
	pdba := k.cpus[0].activePDBA

	if _, ok := k.Translate(pdba, kernelHalfGVA); !ok {
		t.Fatal("Translate failed before clear")
	}
	if err := k.clearPageDirectory(pdba); err != nil {
		t.Fatalf("clearPageDirectory: %v", err)
	}
	// A stale cache hit would keep returning the old frame; the flush in
	// clearPageDirectory forces a re-walk that sees the cleared entries.
	if _, ok := k.Translate(pdba, kernelHalfGVA); ok {
		t.Fatal("Translate succeeded against a cleared page directory (stale TLB entry)")
	}
}

func TestTLBExplicitFlush(t *testing.T) {
	vm := newTestVM(t, 1, nil)
	k := vm.k
	pdba := k.cpus[0].activePDBA

	k.Translate(pdba, kernelHalfGVA)
	before := k.TLBStats()
	k.FlushTLB()
	k.Translate(pdba, kernelHalfGVA)
	after := k.TLBStats()
	if after.Flushes != before.Flushes+1 {
		t.Fatalf("FlushTLB: flushes %d -> %d", before.Flushes, after.Flushes)
	}
	if after.Misses != before.Misses+1 {
		t.Fatalf("post-flush translation: misses %d -> %d, want a re-walk", before.Misses, after.Misses)
	}
}

func TestTLBSlotEviction(t *testing.T) {
	var c tlbCache
	c.gen = 1
	// page and page+tlbSlots share a direct-mapped slot for the same pdba.
	const pdba = arch.GPA(0x100000)
	c.insert(pdba, 7, 0x1000)
	c.insert(pdba, 7+tlbSlots, 0x2000)
	if _, ok := c.lookup(pdba, 7); ok {
		t.Fatal("evicted entry still matched")
	}
	if frame, ok := c.lookup(pdba, 7+tlbSlots); !ok || frame != 0x2000 {
		t.Fatalf("lookup(evictor) = (%#x, %v), want (0x2000, true)", uint64(frame), ok)
	}
	// Distinct pdba with the same page must not false-hit.
	if _, ok := c.lookup(pdba+arch.GPA(tlbSlots)<<arch.PageShift, 7+tlbSlots); ok {
		t.Fatal("lookup matched an entry cached for a different page directory")
	}
}

func TestTLBTelemetryCounters(t *testing.T) {
	reg := telemetry.NewRegistry()
	vm := newTestVM(t, 1, nil)
	k := vm.k
	k.EnableTLBTelemetry(reg)
	pdba := k.cpus[0].activePDBA

	k.Translate(pdba, kernelHalfGVA) // miss
	k.Translate(pdba, kernelHalfGVA) // hit
	k.FlushTLB()

	want := map[string]uint64{
		"hypertap_tlb_hit_total":   1,
		"hypertap_tlb_miss_total":  1,
		"hypertap_tlb_flush_total": 1,
	}
	for name, n := range want {
		if got := reg.Counter(name).Value(); got != n {
			t.Errorf("%s = %d, want %d", name, got, n)
		}
	}
}
