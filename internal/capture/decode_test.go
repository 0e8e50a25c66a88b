package capture

import (
	"bytes"
	"errors"
	"io"
	"math"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"hypertap/internal/auditors/fleetwatch"
	"hypertap/internal/core"
)

// recordOf returns the wire bytes of whatever write emits, without the
// header or the end marker: write runs against a fresh recorder, so the
// bytes between the header and the trailing end record are exactly its
// records.
func recordOf(t testing.TB, write func(r *Recorder)) []byte {
	t.Helper()
	var buf bytes.Buffer
	r, err := NewRecorder(&buf, testHeader())
	if err != nil {
		t.Fatal(err)
	}
	headerLen := buf.Len()
	write(r)
	if err := r.Finish(); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	return append([]byte(nil), raw[headerLen:len(raw)-1]...)
}

// testHeaderBytes is testHeader's wire encoding.
func testHeaderBytes(t testing.TB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := NewRecorder(&buf, testHeader()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// shape is one record shape the decoder must handle.
type shape struct {
	name string
	raw  []byte
	// fixed marks shapes that decode without allocating.
	fixed bool
}

// recordShapes builds one record of every shape: every event payload type
// (the sentinel type 32 carries the generic payload), tick, barrier,
// counter and every view method — ReadGPA with data and failed, a C
// string.
func recordShapes(t testing.TB) []shape {
	t.Helper()
	var out []shape
	for _, ty := range append(core.AllEventTypes(), core.EventType(32)) {
		ev := sampleEvent(ty)
		out = append(out, shape{name: "event-" + ty.String(), fixed: true,
			raw: recordOf(t, func(r *Recorder) { r.TapEvent(&ev) })})
	}
	out = append(out,
		shape{"tick", recordOf(t, func(r *Recorder) { r.TapTick(0, time.Millisecond) }), true},
		shape{"barrier", recordOf(t, func(r *Recorder) { r.TapBarrier(time.Millisecond) }), true},
		shape{"counter", recordOf(t, func(r *Recorder) { r.Counter(staticCounter(5), 0).CountProcesses() }), true},
	)
	view := func(name string, fixed bool, read func(v *RecordingView)) {
		out = append(out, shape{"view-" + name, recordOf(t, func(r *Recorder) { read(r.View(&fakeView{}, 0)) }), fixed})
	}
	view("regs", true, func(v *RecordingView) { v.Regs(1) })
	view("read-gpa", false, func(v *RecordingView) { v.ReadGPA(0x1000, make([]byte, 8)) })
	view("read-gpa-failed", true, func(v *RecordingView) { v.ReadGPA(0xffff_ffff, make([]byte, 8)) })
	view("u64-gpa", true, func(v *RecordingView) { v.ReadU64GPA(0x1000) })
	view("u32-gpa", true, func(v *RecordingView) { v.ReadU32GPA(0x1000) })
	view("translate", true, func(v *RecordingView) { v.TranslateGVA(0xa000, 0x400000) })
	view("u64-gva", true, func(v *RecordingView) { v.ReadU64GVA(0xa000, 0x400000) })
	view("u32-gva", true, func(v *RecordingView) { v.ReadU32GVA(0xa000, 0x400000) })
	view("cstring", false, func(v *RecordingView) { v.ReadCStringGVA(0xa000, 0x400000, 64) })
	view("now", true, func(v *RecordingView) { v.Now() })
	view("paused", true, func(v *RecordingView) { v.Paused() })
	return out
}

// TestTruncationIsLoud pins the truncation contract: cutting a capture at
// any byte inside a record produces an error from Next — never a silently
// short stream. The stream holds one record of every shape and is cut at
// every byte: a cut at a record boundary reads as a clean io.EOF, and any
// other cut is a truncation error wrapping io.ErrUnexpectedEOF. It runs
// over whole reads, one-byte reads and readers that return io.EOF with
// their last data, since the decoder's buffered peeks see short reads
// differently from io.ReadFull.
func TestTruncationIsLoud(t *testing.T) {
	raw := testHeaderBytes(t)
	headerLen := len(raw)
	boundaries := map[int]bool{headerLen: true}
	for _, s := range recordShapes(t) {
		raw = append(raw, s.raw...)
		boundaries[len(raw)] = true
	}
	raw = append(raw, recEnd)
	boundaries[len(raw)] = true

	readers := map[string]func([]byte) io.Reader{
		"whole":    func(b []byte) io.Reader { return bytes.NewReader(b) },
		"one-byte": func(b []byte) io.Reader { return iotest.OneByteReader(bytes.NewReader(b)) },
		"data-eof": func(b []byte) io.Reader { return iotest.DataErrReader(bytes.NewReader(b)) },
	}
	for name, mk := range readers {
		for cut := headerLen; cut <= len(raw); cut++ {
			rd, err := NewReader(mk(raw[:cut]))
			if err != nil {
				t.Fatalf("%s cut %d: header rejected: %v", name, cut, err)
			}
			var rec Record
			for err == nil {
				err = rd.Next(&rec)
			}
			switch {
			case boundaries[cut]:
				if err != io.EOF {
					t.Fatalf("%s cut %d is a record boundary; want io.EOF, got %v", name, cut, err)
				}
			case !errors.Is(err, io.ErrUnexpectedEOF):
				t.Fatalf("%s cut %d is mid-record; want a truncation error, got %v", name, cut, err)
			}
		}
	}
}

// cycleReader serves head once, then body repeated forever, so a Reader
// over it decodes the same records indefinitely without being rebuilt.
type cycleReader struct {
	head, body []byte
	off        int
}

func (c *cycleReader) Read(p []byte) (int, error) {
	if len(c.head) > 0 {
		n := copy(p, c.head)
		c.head = c.head[n:]
		return n, nil
	}
	n := 0
	for n < len(p) {
		k := copy(p[n:], c.body[c.off:])
		n += k
		c.off = (c.off + k) % len(c.body)
	}
	return n, nil
}

// TestReaderNextZeroAllocs holds Reader.Next to zero allocations per record
// for every fixed-size record shape: every event type, tick, barrier,
// counter and every view but ReadGPA data and C strings.
func TestReaderNextZeroAllocs(t *testing.T) {
	head := testHeaderBytes(t)
	for _, s := range recordShapes(t) {
		if !s.fixed {
			continue
		}
		rd, err := NewReader(&cycleReader{head: head, body: s.raw})
		if err != nil {
			t.Fatal(err)
		}
		var rec Record
		// Enough records per run to refill the reader's buffer many times.
		const perRun = 4096
		allocs := testing.AllocsPerRun(20, func() {
			for i := 0; i < perRun; i++ {
				if err := rd.Next(&rec); err != nil {
					panic(err)
				}
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %.2f allocs per %d records, want 0", s.name, allocs, perRun)
		}
	}
}

// asyncCounter is a minimal asynchronous auditor: it counts deliveries.
type asyncCounter struct{ n int }

func (c *asyncCounter) Name() string                 { return "async-counter" }
func (c *asyncCounter) Mask() core.EventMask         { return core.MaskAll }
func (c *asyncCounter) HandleEvent(*core.Event)      { c.n++ }
func (c *asyncCounter) HandleBatch(evs []core.Event) { c.n += len(evs) }

// TestReplayRunZeroAllocs holds Replay.Run to zero allocations per record
// once the replay is built: decode, regrouping, PublishBatch, tick and
// barrier handling over a generated fleet stream, with async auditors.
// Run's only allocations are one-time warm-up (the EM's drain buffer and
// the auditors' tables growing to their high-water marks), so a stream
// eight times longer must allocate exactly as often. Each count is the
// least of a few runs, since a runtime goroutine can allocate while one is
// measured.
func TestReplayRunZeroAllocs(t *testing.T) {
	runAllocs := func(events int) uint64 {
		data := Generate(3, 4, 2, events, time.Millisecond)
		least := uint64(math.MaxUint64)
		for i := 0; i < 5; i++ {
			rp, err := NewReplay(bytes.NewReader(data), ReplayConfig{})
			if err != nil {
				t.Fatal(err)
			}
			if err := rp.EM().RegisterAuditor(&asyncCounter{}, core.DeliverAsync, 1<<12); err != nil {
				t.Fatal(err)
			}
			fw := fleetwatch.New(fleetwatch.Config{VMName: rp.EM().VMName})
			if err := rp.EM().RegisterAuditor(fw, core.DeliverAsync, 1<<12); err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err = rp.Run()
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			least = min(least, after.Mallocs-before.Mallocs)
		}
		return least
	}
	short, long := runAllocs(8000), runAllocs(64000)
	if long != short {
		t.Fatalf("Run allocated %d times over 8000 events but %d times over 64000, want no per-record allocation", short, long)
	}
}

// twinSyscalls is a capture of two syscall events from one exit (same VM
// and Seq, so even a same-exit regrouping puts them in one batch) and an end
// marker. It returns the stream and the second event's offset.
func twinSyscalls(t *testing.T) ([]byte, int) {
	t.Helper()
	var buf bytes.Buffer
	r, err := NewRecorder(&buf, testHeader())
	if err != nil {
		t.Fatal(err)
	}
	ev := sampleEvent(core.EvSyscall)
	r.TapEvent(&ev)
	r.TapEvent(&ev)
	if err := r.Finish(); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	return raw, len(raw) - 1 - (eventFixedSize + 4 + 4*8)
}

// TestReplaySurfacesDecodeErrors pins that Run reports a damaged stream
// however the damage is reached. A decode error hit while looking ahead
// past an event for the rest of its batch must not be dropped: truncating
// the second of two batched events must fail the run, not end it cleanly,
// and a corrupt kind byte must be reported as itself, not as whatever the
// decoder makes of the bytes after it.
func TestReplaySurfacesDecodeErrors(t *testing.T) {
	raw, second := twinSyscalls(t)
	end := len(raw) - 1
	for _, strict := range []bool{false, true} {
		for cut := second + 1; cut < end; cut++ {
			rp, err := NewReplay(bytes.NewReader(raw[:cut]), ReplayConfig{Strict: strict})
			if err != nil {
				t.Fatal(err)
			}
			if err := rp.Run(); !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("strict=%v: cut %d inside the second event: Run returned %v, want truncation", strict, cut, err)
			}
		}

		bad := append([]byte(nil), raw...)
		bad[second] = 0x77
		rp, err := NewReplay(bytes.NewReader(bad), ReplayConfig{Strict: strict})
		if err != nil {
			t.Fatal(err)
		}
		if err := rp.Run(); err == nil || !strings.Contains(err.Error(), "unknown record kind 119") {
			t.Fatalf("strict=%v: corrupt kind byte: Run returned %v, want unknown record kind 119", strict, err)
		}
	}
}

// TestReplayLatchesViewDecodeErrors pins the same for auditor reads: a view
// pop that hits a damaged record counts a divergence, and Run still returns
// the decode error rather than carrying on from mid-record.
func TestReplayLatchesViewDecodeErrors(t *testing.T) {
	var buf bytes.Buffer
	r, err := NewRecorder(&buf, testHeader())
	if err != nil {
		t.Fatal(err)
	}
	r.View(&fakeView{}, 0).ReadU64GPA(0x1000)
	if err := r.Finish(); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw = raw[:len(raw)-3] // cut inside the view record
	rp, err := NewReplay(bytes.NewReader(raw), ReplayConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rp.View(0).ReadU64GPA(0x1000); !errors.Is(err, errDivergence) {
		t.Fatalf("read of a truncated view record returned %v, want errDivergence", err)
	}
	if n := rp.Divergences(); n != 1 {
		t.Fatalf("divergences = %d, want 1", n)
	}
	if err := rp.Run(); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("Run after a truncated view pop returned %v, want truncation", err)
	}
}
