package capture

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
	"time"

	"hypertap/internal/arch"
	"hypertap/internal/core"
	"hypertap/internal/hav"
)

// testHeader is the single-VM header most codec tests use.
func testHeader() Header {
	return Header{Tick: time.Millisecond, VMs: []VMHeader{{Name: "codec-vm", VCPUs: 2}}}
}

// sampleEvent builds a fully-populated event of type t: every field the
// codec could carry is set to a distinctive value, so a round trip that
// drops or misorders anything shows up as a field mismatch.
func sampleEvent(t core.EventType) core.Event {
	ev := core.Event{
		Type:       t,
		VM:         0,
		VCPU:       1,
		Seq:        0x1122334455667788,
		Span:       core.MintSpan(0, 42, 1),
		Time:       1500 * time.Millisecond,
		ExitReason: hav.ExitCRAccess,

		PDBA:        arch.GPA(0xa000),
		RSP0:        arch.GVA(0xffff8000_00001000),
		SyscallNr:   39,
		SyscallArgs: [4]uint64{1, 2, 3, 4},
		Port:        0x3f8,
		IsWrite:     true,
		IOValue:     0x41,
		Vector:      32,
		MSR:         arch.MSR(0x1b),
		MSRValue:    0xfee00900,
		GPA:         arch.GPA(0xb000),
		GVA:         arch.GVA(0xffff8000_00002000),
	}
	ev.Regs = arch.RegisterFile{
		RIP: 0x401000, RSP: 0x7ffe0000, CR3: 0xa000, TR: 0xffff8000_00003000,
		CPL: 3,
	}
	for i := range ev.Regs.GPRs {
		ev.Regs.GPRs[i] = uint64(0xdead0000 + i)
	}
	return ev
}

// canonical zeroes the fields event type t does not carry on the wire, i.e.
// the decoder's expected output for sampleEvent(t).
func canonical(ev core.Event) core.Event {
	out := ev
	out.PDBA, out.RSP0 = 0, 0
	out.SyscallNr, out.SyscallArgs = 0, [4]uint64{}
	out.Port, out.IsWrite, out.IOValue = 0, false, 0
	out.Vector = 0
	out.MSR, out.MSRValue = 0, 0
	out.GPA, out.GVA = 0, 0
	switch ev.Type {
	case core.EvProcessSwitch:
		out.PDBA = ev.PDBA
	case core.EvThreadSwitch:
		out.RSP0, out.GPA = ev.RSP0, ev.GPA
	case core.EvSyscall:
		out.SyscallNr, out.SyscallArgs = ev.SyscallNr, ev.SyscallArgs
	case core.EvIOPort:
		out.Port, out.IsWrite, out.IOValue = ev.Port, ev.IsWrite, ev.IOValue
	case core.EvMMIO, core.EvMemAccess:
		out.GPA, out.GVA, out.IsWrite = ev.GPA, ev.GVA, ev.IsWrite
	case core.EvInterrupt, core.EvRawExit:
		out.Vector = ev.Vector
	case core.EvAPICAccess:
		out.IsWrite = ev.IsWrite
	case core.EvHalt:
	case core.EvMSRWrite:
		out.MSR, out.MSRValue = ev.MSR, ev.MSRValue
	case core.EvTSSRelocated:
		out.GVA = ev.GVA
	default:
		// Generic payload: everything survives.
		return ev
	}
	return out
}

// TestEventRoundTrip encodes and decodes one fully-populated event of every
// type — all twelve decoded types, the routing table's sentinel range ≥ 32,
// and a zero-Span untraced event — and demands identity.
func TestEventRoundTrip(t *testing.T) {
	types := append(core.AllEventTypes(), core.EventType(32), core.EventType(200))
	var cases []core.Event
	for _, ty := range types {
		cases = append(cases, sampleEvent(ty))
	}
	// Untraced event: Span zero, as published outside a forwarder.
	untraced := sampleEvent(core.EvSyscall)
	untraced.Span = 0
	cases = append(cases, untraced)
	// Zero ExitReason: synthetic events (tests, generators) carry none.
	synthetic := sampleEvent(core.EvHalt)
	synthetic.ExitReason = 0
	cases = append(cases, synthetic)

	var buf bytes.Buffer
	rec, err := NewRecorder(&buf, testHeader())
	if err != nil {
		t.Fatal(err)
	}
	for i := range cases {
		ev := cases[i]
		rec.TapEvent(&ev)
	}
	if err := rec.Finish(); err != nil {
		t.Fatal(err)
	}

	rd, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if hdr := rd.Header(); hdr.Tick != time.Millisecond ||
		len(hdr.VMs) != 1 || hdr.VMs[0] != (VMHeader{Name: "codec-vm", VCPUs: 2}) {
		t.Fatalf("header round trip: got %+v", hdr)
	}
	var got Record
	for i := range cases {
		if err := rd.Next(&got); err != nil {
			t.Fatalf("record %d (%v): %v", i, cases[i].Type, err)
		}
		if got.Kind != recEvent {
			t.Fatalf("record %d: kind %d, want event", i, got.Kind)
		}
		want := canonical(cases[i])
		if got.Event != want {
			t.Fatalf("type %v round trip diverged:\ngot  %+v\nwant %+v", cases[i].Type, got.Event, want)
		}
	}
	if err := rd.Next(&got); err != nil || got.Kind != recEnd {
		t.Fatalf("want end record, got kind %d err %v", got.Kind, err)
	}
	if err := rd.Next(&got); err != io.EOF {
		t.Fatalf("want io.EOF after end, got %v", err)
	}
}

// TestControlRecordRoundTrip covers tick, barrier and counter records.
func TestControlRecordRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	rec, err := NewRecorder(&buf, testHeader())
	if err != nil {
		t.Fatal(err)
	}
	rec.TapTick(0, 7*time.Millisecond)
	rec.TapBarrier(7 * time.Millisecond)
	cnt := rec.Counter(staticCounter(17), 0)
	if n := cnt.CountProcesses(); n != 17 {
		t.Fatalf("recording counter forwarded %d, want 17", n)
	}
	if err := rec.Finish(); err != nil {
		t.Fatal(err)
	}

	rd, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var got Record
	if err := rd.Next(&got); err != nil || got.Kind != recTick || got.VM != 0 || got.Now != 7*time.Millisecond {
		t.Fatalf("tick: %+v err %v", got, err)
	}
	if err := rd.Next(&got); err != nil || got.Kind != recBarrier || got.Now != 7*time.Millisecond {
		t.Fatalf("barrier: %+v err %v", got, err)
	}
	if err := rd.Next(&got); err != nil || got.Kind != recCounter || got.Count != 17 {
		t.Fatalf("counter: %+v err %v", got, err)
	}
	if err := rd.Next(&got); err != nil || got.Kind != recEnd {
		t.Fatalf("end: %+v err %v", got, err)
	}
}

// staticCounter is a fixed-count ProcessCounter for codec tests.
type staticCounter int

func (c staticCounter) CountProcesses() int { return int(c) }

// TestVersionSkew pins the version gate: a stream from a future format (same
// magic, bumped version byte) is rejected with ErrUnsupportedVersion and an
// error message naming the understood versions.
func TestVersionSkew(t *testing.T) {
	var buf bytes.Buffer
	rec, err := NewRecorder(&buf, testHeader())
	if err != nil {
		t.Fatal(err)
	}
	ev := sampleEvent(core.EvSyscall)
	rec.TapEvent(&ev)
	if err := rec.Finish(); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[4] = 3 // version byte follows the 4-byte magic

	_, err = NewReader(bytes.NewReader(raw))
	if !errors.Is(err, ErrUnsupportedVersion) {
		t.Fatalf("v3 header: got %v, want ErrUnsupportedVersion", err)
	}
	for _, want := range []string{"v3", "v1", "v2"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("version error %q does not name %s", err, want)
		}
	}
}

// TestBadMagic distinguishes "not a capture at all" from version skew.
func TestBadMagic(t *testing.T) {
	_, err := NewReader(strings.NewReader("ELF\x7fjunkjunkjunkjunk"))
	if err == nil || errors.Is(err, ErrUnsupportedVersion) {
		t.Fatalf("bad magic: got %v, want a distinct magic error", err)
	}
	if !strings.Contains(err.Error(), "magic") {
		t.Fatalf("bad magic error %q does not mention magic", err)
	}
}

// TestHeaderValidation exercises recorder- and reader-side header checks.
func TestHeaderValidation(t *testing.T) {
	var buf bytes.Buffer
	if _, err := NewRecorder(&buf, Header{}); err == nil {
		t.Fatal("empty VM table accepted")
	}
	if _, err := NewRecorder(&buf, Header{VMs: []VMHeader{{Name: "", VCPUs: 1}}}); err == nil {
		t.Fatal("empty VM name accepted")
	}
	if _, err := NewRecorder(&buf, Header{VMs: []VMHeader{{Name: "x", VCPUs: 0}}}); err == nil {
		t.Fatal("zero vCPUs accepted")
	}

	// Reader side: truncated header and truncated VM table.
	if _, err := NewReader(strings.NewReader("HTCS")); err == nil {
		t.Fatal("truncated header accepted")
	}
	buf.Reset()
	rec, err := NewRecorder(&buf, testHeader())
	if err != nil {
		t.Fatal(err)
	}
	_ = rec
	raw := buf.Bytes()
	if _, err := NewReader(bytes.NewReader(raw[:len(raw)-1])); err == nil {
		t.Fatal("truncated VM table accepted")
	}
}

// TestInvalidEventRecords pins the reader's event validation: a zero event
// type and an out-of-range nonzero exit reason are both corrupt.
func TestInvalidEventRecords(t *testing.T) {
	build := func(mutate func(raw []byte, eventOff int)) error {
		var buf bytes.Buffer
		rec, err := NewRecorder(&buf, testHeader())
		if err != nil {
			t.Fatal(err)
		}
		off := buf.Len()
		ev := sampleEvent(core.EvHalt)
		rec.TapEvent(&ev)
		if err := rec.Finish(); err != nil {
			t.Fatal(err)
		}
		raw := buf.Bytes()
		mutate(raw, off)
		rd, err := NewReader(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		var got Record
		return rd.Next(&got)
	}

	if err := build(func(raw []byte, off int) { raw[off+1] = 0 }); err == nil {
		t.Fatal("zero event type accepted")
	}
	if err := build(func(raw []byte, off int) { raw[off+30] = 0xee }); err == nil {
		t.Fatal("invalid exit reason accepted")
	}
}

// TestGenerateRoundTrips pins the corpus generator: every generated stream
// parses cleanly end to end and is a pure function of its seed.
func TestGenerateRoundTrips(t *testing.T) {
	a := Generate(7, 2, 2, 500, time.Millisecond)
	b := Generate(7, 2, 2, 500, time.Millisecond)
	if !bytes.Equal(a, b) {
		t.Fatal("Generate is not deterministic for a fixed seed")
	}
	if c := Generate(8, 2, 2, 500, time.Millisecond); bytes.Equal(a, c) {
		t.Fatal("Generate ignores its seed")
	}

	rd, err := NewReader(bytes.NewReader(a))
	if err != nil {
		t.Fatal(err)
	}
	events := 0
	var rec Record
	for {
		err := rd.Next(&rec)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if rec.Kind == recEvent {
			events++
		}
	}
	if events != 500 {
		t.Fatalf("generated stream carries %d events, want 500", events)
	}
}

// TestRecordingViewRoundTrip drives every GuestView method through a
// RecordingView and pops the results back through a ReplayView, proving the
// view codec is an identity for values and error-ness.
func TestRecordingViewRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	rec, err := NewRecorder(&buf, testHeader())
	if err != nil {
		t.Fatal(err)
	}
	fake := &fakeView{}
	rv := rec.View(fake, 0)

	regs := rv.Regs(1)
	data := make([]byte, 8)
	if err := rv.ReadGPA(0x1000, data); err != nil {
		t.Fatal(err)
	}
	u64, _ := rv.ReadU64GPA(0x1000)
	u32, _ := rv.ReadU32GPA(0x1000)
	gpa, ok := rv.TranslateGVA(0xa000, 0x400000)
	u64v, _ := rv.ReadU64GVA(0xa000, 0x400000)
	u32v, _ := rv.ReadU32GVA(0xa000, 0x400000)
	s, _ := rv.ReadCStringGVA(0xa000, 0x400000, 64)
	now := rv.Now()
	paused := rv.Paused()
	if _, err := rv.ReadU64GPA(0xffff_ffff); err == nil {
		t.Fatal("fake view should fail high reads")
	}
	if err := rec.Finish(); err != nil {
		t.Fatal(err)
	}

	rp, err := NewReplay(bytes.NewReader(buf.Bytes()), ReplayConfig{})
	if err != nil {
		t.Fatal(err)
	}
	pv := rp.View(0)
	if got := pv.Regs(1); got != regs {
		t.Fatalf("regs: got %+v want %+v", got, regs)
	}
	got := make([]byte, 8)
	if err := pv.ReadGPA(0x1000, got); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("ReadGPA: %v %x want %x", err, got, data)
	}
	if g, err := pv.ReadU64GPA(0x1000); err != nil || g != u64 {
		t.Fatalf("ReadU64GPA: %d %v want %d", g, err, u64)
	}
	if g, err := pv.ReadU32GPA(0x1000); err != nil || g != u32 {
		t.Fatalf("ReadU32GPA: %d %v want %d", g, err, u32)
	}
	if g, gok := pv.TranslateGVA(0xa000, 0x400000); gok != ok || g != gpa {
		t.Fatalf("TranslateGVA: %#x %v want %#x %v", uint64(g), gok, uint64(gpa), ok)
	}
	if g, err := pv.ReadU64GVA(0xa000, 0x400000); err != nil || g != u64v {
		t.Fatalf("ReadU64GVA: %d %v want %d", g, err, u64v)
	}
	if g, err := pv.ReadU32GVA(0xa000, 0x400000); err != nil || g != u32v {
		t.Fatalf("ReadU32GVA: %d %v want %d", g, err, u32v)
	}
	if g, err := pv.ReadCStringGVA(0xa000, 0x400000, 64); err != nil || g != s {
		t.Fatalf("ReadCStringGVA: %q %v want %q", g, err, s)
	}
	if g := pv.Now(); g != now {
		t.Fatalf("Now: %v want %v", g, now)
	}
	if g := pv.Paused(); g != paused {
		t.Fatalf("Paused: %v want %v", g, paused)
	}
	if _, err := pv.ReadU64GPA(0xffff_ffff); !errors.Is(err, errRecordedFailure) {
		t.Fatalf("recorded failure replayed as %v", err)
	}
	if n := rp.Divergences(); n != 0 {
		t.Fatalf("clean replay counted %d divergences", n)
	}
	// One read past the recorded stream is a divergence.
	if _, err := pv.ReadU64GPA(0); !errors.Is(err, errDivergence) {
		t.Fatalf("orphan read returned %v, want errDivergence", err)
	}
	if n := rp.Divergences(); n != 1 {
		t.Fatalf("orphan read counted %d divergences, want 1", n)
	}
}

// fakeView is a deterministic in-memory GuestView for codec tests.
type fakeView struct{}

func (f *fakeView) NumVCPUs() int { return 2 }
func (f *fakeView) Regs(vcpu int) arch.RegisterFile {
	return arch.RegisterFile{RIP: arch.GVA(0x1000 + vcpu), CPL: 3}
}
func (f *fakeView) ReadGPA(gpa arch.GPA, buf []byte) error {
	if gpa > 0x10000 {
		return errors.New("fake: out of range")
	}
	for i := range buf {
		buf[i] = byte(int(gpa) + i)
	}
	return nil
}
func (f *fakeView) ReadU64GPA(gpa arch.GPA) (uint64, error) {
	if gpa > 0x10000 {
		return 0, errors.New("fake: out of range")
	}
	return uint64(gpa) + 7, nil
}
func (f *fakeView) ReadU32GPA(gpa arch.GPA) (uint32, error) {
	if gpa > 0x10000 {
		return 0, errors.New("fake: out of range")
	}
	return uint32(gpa) + 3, nil
}
func (f *fakeView) TranslateGVA(cr3 arch.GPA, gva arch.GVA) (arch.GPA, bool) {
	return arch.GPA(gva >> 1), true
}
func (f *fakeView) ReadU64GVA(cr3 arch.GPA, gva arch.GVA) (uint64, error) {
	return uint64(gva) + 9, nil
}
func (f *fakeView) ReadU32GVA(cr3 arch.GPA, gva arch.GVA) (uint32, error) {
	return uint32(gva) + 5, nil
}
func (f *fakeView) ReadCStringGVA(cr3 arch.GPA, gva arch.GVA, max int) (string, error) {
	return "fake-task", nil
}
func (f *fakeView) Now() time.Duration { return 42 * time.Millisecond }
func (f *fakeView) PauseVM()           {}
func (f *fakeView) ResumeVM()          {}
func (f *fakeView) Paused() bool       { return false }
