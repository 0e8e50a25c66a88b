package capture

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
	"unsafe"

	"hypertap/internal/arch"
	"hypertap/internal/core"
)

// pipelineCapture records what build writes on testHeader's one VM and
// returns the stream. build decides whether an end marker (Finish) and an
// epilogue follow.
func pipelineCapture(t *testing.T, build func(r *Recorder)) []byte {
	t.Helper()
	var buf bytes.Buffer
	r, err := NewRecorder(&buf, testHeader())
	if err != nil {
		t.Fatal(err)
	}
	build(r)
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// bulk records n syscall events numbered from seq on, with a tick after
// every fourth: several chunks' worth of records, so Run starts its
// decoder goroutine.
func bulk(r *Recorder, seq uint64, n int) {
	for i := range n {
		ev := sampleEvent(core.EvSyscall)
		ev.Seq = seq + uint64(i)
		r.TapEvent(&ev)
		if i%4 == 3 {
			r.TapTick(0, time.Duration(ev.Seq)*time.Microsecond)
		}
	}
}

// goroutineProbe is a sync auditor that records the most goroutines alive
// at any of its deliveries.
type goroutineProbe struct{ peak int }

func (g *goroutineProbe) Name() string         { return "goroutine-probe" }
func (g *goroutineProbe) Mask() core.EventMask { return core.MaskAll }
func (g *goroutineProbe) HandleEvent(*core.Event) {
	g.peak = max(g.peak, runtime.NumGoroutine())
}

// panicAt is a sync auditor that panics on the event numbered seq.
type panicAt struct{ seq uint64 }

func (p *panicAt) Name() string         { return "panic-at" }
func (p *panicAt) Mask() core.EventMask { return core.MaskAll }
func (p *panicAt) HandleEvent(ev *core.Event) {
	if ev.Seq == p.seq {
		panic(fmt.Sprintf("auditor panic at seq %d", ev.Seq))
	}
}

// TestReplayPipelineLifetime pins the decoder goroutine's lifetime: on
// every way Run can return — end marker, clean EOF, decode error, Strict
// orphan record, panicking auditor — the goroutine count is back to its
// value before Run, and the goroutine did run while Run delivered (each
// capture spans many chunks). Reads after Run still pop the right records: the epilogue after
// the end marker, and after an orphan the rest of the stream, which a
// second Run drives to the end. A capture smaller than one chunk never
// starts the goroutine.
func TestReplayPipelineLifetime(t *testing.T) {
	const n = 3 * chunkRecords
	withEnd := pipelineCapture(t, func(r *Recorder) {
		bulk(r, 0, n)
		if err := r.Finish(); err != nil {
			t.Fatal(err)
		}
		r.View(&fakeView{}, 0).ReadU64GPA(0x1000)
		r.Counter(staticCounter(5), 0).CountProcesses()
	})
	noEnd := pipelineCapture(t, func(r *Recorder) { bulk(r, 0, n) })
	orphan := pipelineCapture(t, func(r *Recorder) {
		bulk(r, 0, n/2)
		r.View(&fakeView{}, 0).ReadU64GPA(0x2000)
		bulk(r, n/2, n/2)
		if err := r.Finish(); err != nil {
			t.Fatal(err)
		}
	})
	tiny := pipelineCapture(t, func(r *Recorder) {
		bulk(r, 0, 8)
		if err := r.Finish(); err != nil {
			t.Fatal(err)
		}
	})

	cases := []struct {
		name    string
		data    []byte
		strict  bool
		panicAt uint64 // 0: no panicking auditor
		wantErr string // "" for a clean return
		spawns  bool
		after   func(t *testing.T, rp *Replay)
	}{
		{name: "end marker", data: withEnd, spawns: true, after: func(t *testing.T, rp *Replay) {
			if v, err := rp.View(0).ReadU64GPA(0x1000); err != nil || v != 0x1007 {
				t.Errorf("epilogue view read = %#x, %v; want 0x1007", v, err)
			}
			if got := rp.Counter(0).CountProcesses(); got != 5 {
				t.Errorf("epilogue counter read = %d, want 5", got)
			}
			if _, err := rp.peek(); err != io.EOF {
				t.Errorf("after the epilogue: %v, want io.EOF", err)
			}
		}},
		{name: "clean EOF", data: noEnd, spawns: true},
		{name: "decode error", data: noEnd[:len(noEnd)-5], spawns: true,
			wantErr: io.ErrUnexpectedEOF.Error()},
		{name: "strict orphan", data: orphan, strict: true, spawns: true,
			wantErr: "orphan view record", after: func(t *testing.T, rp *Replay) {
				if err := rp.Run(); err != nil {
					t.Errorf("second Run after the orphan: %v", err)
				}
			}},
		{name: "panicking auditor", data: withEnd, panicAt: n / 2, spawns: true,
			wantErr: fmt.Sprintf("auditor panic at seq %d", n/2)},
		{name: "tiny", data: tiny},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rp, err := NewReplay(bytes.NewReader(tc.data), ReplayConfig{Strict: tc.strict})
			if err != nil {
				t.Fatal(err)
			}
			probe := &goroutineProbe{}
			if err := rp.EM().Register(probe, core.DeliverSync, 0); err != nil {
				t.Fatal(err)
			}
			if tc.panicAt != 0 {
				if err := rp.EM().Register(&panicAt{seq: tc.panicAt}, core.DeliverSync, 0); err != nil {
					t.Fatal(err)
				}
			}
			before := runtime.NumGoroutine()
			err = func() (err error) {
				defer func() {
					if p := recover(); p != nil {
						err = fmt.Errorf("%v", p)
					}
				}()
				return rp.Run()
			}()
			if after := settle(before); after != before {
				t.Errorf("%d goroutines after Run, %d before", after, before)
			}
			if (err == nil) != (tc.wantErr == "") || err != nil && !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Run returned %v, want %q", err, tc.wantErr)
			}
			if spawned := probe.peak > before; spawned != tc.spawns {
				t.Fatalf("decoder goroutine started: %v, want %v", spawned, tc.spawns)
			}
			if tc.after != nil {
				tc.after(t, rp)
				if after := settle(before); after != before {
					t.Errorf("%d goroutines after the reads that follow Run, %d before", after, before)
				}
			}
			if rp.decoding {
				t.Error("decoder still marked running after Run returned")
			}
			if rp.Divergences() != 0 && !tc.strict {
				t.Errorf("%d divergences", rp.Divergences())
			}
		})
	}
}

// settle returns the goroutine count once it is back to want, or after a
// second. Run has joined the decoder when it returns, but the goroutine may
// still be a few instructions from gone.
func settle(want int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(time.Second); n != want && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		runtime.Gosched()
	}
	return n
}

// crossReader is a sync auditor that, on events whose Seq is in reads,
// performs that many ReadU64GPA reads, then checks that the event it is
// handling did not change meanwhile. It logs every event and read in
// delivery order.
type crossReader struct {
	view  *ReplayView
	reads map[uint64]int
	log   []string
}

func (c *crossReader) Name() string         { return "cross-reader" }
func (c *crossReader) Mask() core.EventMask { return core.MaskAll }
func (c *crossReader) HandleEvent(ev *core.Event) {
	seq := ev.Seq
	c.log = append(c.log, fmt.Sprintf("event %d", seq))
	k := c.reads[seq]
	for i := range k {
		v, err := c.view.ReadU64GPA(arch.GPA(0x1000 + 8*i))
		c.log = append(c.log, fmt.Sprintf("view %#x %v", v, err))
	}
	if k > 0 {
		// Give the decoder time to run ahead: were the published run's
		// chunk handed back early, it would be refilled under us.
		time.Sleep(200 * time.Microsecond)
		if ev.Seq != seq {
			c.log = append(c.log, fmt.Sprintf("event %d changed under its delivery to %d", seq, ev.Seq))
		}
	}
}

// TestReplayChunkBoundaries pins the pipeline at chunk edges against a
// record-by-record Reader.Next trace of the same stream. The stream puts a
// sync-read event as the last record of the first (firstChunkRecords)
// chunk, so its view reads
// cross into the next chunk inside PublishBatch; other such events land at
// every offset around later boundaries; and long plain event runs are split
// by chunk ends and by maxReplayBatch.
func TestReplayChunkBoundaries(t *testing.T) {
	reads := map[uint64]int{firstChunkRecords - 1: 3}
	data := pipelineCapture(t, func(r *Recorder) {
		seq := uint64(0)
		event := func() {
			ev := sampleEvent(core.EvSyscall)
			ev.Seq = seq
			r.TapEvent(&ev)
			v := r.View(&fakeView{}, 0)
			for i := range reads[seq] {
				v.ReadU64GPA(arch.GPA(0x1000 + 8*i))
			}
			seq++
		}
		for seq < firstChunkRecords {
			event()
		}
		// Plain events: a run across the second chunk's end and past
		// maxReplayBatch.
		for range chunkRecords + 300 {
			event()
		}
		// Then reading events at every offset from 1 to 7 records apart.
		for k := 1; seq < 6*chunkRecords; k = k%7 + 1 {
			reads[seq] = k
			event()
			for range k {
				event()
			}
		}
		if err := r.Finish(); err != nil {
			t.Fatal(err)
		}
	})

	// The oracle: the log a record-by-record walk predicts.
	var want []string
	rd, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var rec Record
	for rd.Next(&rec) == nil && rec.Kind != recEnd {
		switch rec.Kind {
		case recEvent:
			want = append(want, fmt.Sprintf("event %d", rec.Event.Seq))
		case recView:
			want = append(want, fmt.Sprintf("view %#x <nil>", rec.View.U64))
		}
	}

	rp, err := NewReplay(bytes.NewReader(data), ReplayConfig{Strict: true})
	if err != nil {
		t.Fatal(err)
	}
	cr := &crossReader{view: rp.View(0), reads: reads}
	if err := rp.EM().Register(cr, core.DeliverSync, 0); err != nil {
		t.Fatal(err)
	}
	probe := &goroutineProbe{}
	if err := rp.EM().Register(probe, core.DeliverSync, 0); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	if err := rp.Run(); err != nil {
		t.Fatal(err)
	}
	if probe.peak <= before {
		t.Fatal("Run never started the decoder goroutine; the test covers nothing")
	}
	if n := rp.Divergences(); n != 0 {
		t.Fatalf("%d divergences", n)
	}
	if !slices.Equal(cr.log, want) {
		for i := range min(len(cr.log), len(want)) {
			if cr.log[i] != want[i] {
				t.Fatalf("delivery log diverges from Reader.Next at entry %d: %q, want %q", i, cr.log[i], want[i])
			}
		}
		t.Fatalf("delivery log has %d entries, Reader.Next %d", len(cr.log), len(want))
	}
}

// heapProbe is a sync auditor that records the peak live heap seen at its
// deliveries.
type heapProbe struct{ peak uint64 }

func (h *heapProbe) Name() string         { return "heap-probe" }
func (h *heapProbe) Mask() core.EventMask { return core.MaskAll }
func (h *heapProbe) HandleEvent(*core.Event) {
	h.peak = max(h.peak, liveHeap())
}

func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestReplayReadAheadBound pins the read-ahead bound on a hostile capture of
// maximum-size ReadGPA views, each followed by an event: a chunk ends at
// its view-payload budget, so one holds a single such view, and the
// decoded payload live at any delivery stays within chunkCount chunks of
// chunkViewBytes plus one maximum view each — not the whole capture a
// record-count bound alone would let the decoder run ahead over.
func TestReplayReadAheadBound(t *testing.T) {
	const views = 20
	data := pipelineCapture(t, func(r *Recorder) {
		big := make([]byte, maxDataLen)
		for i := range views {
			r.View(&fakeView{}, 0).ReadGPA(0, big)
			ev := sampleEvent(core.EvSyscall)
			ev.Seq = uint64(i)
			r.TapEvent(&ev)
		}
		if err := r.Finish(); err != nil {
			t.Fatal(err)
		}
	})

	rd, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	c := newChunk(chunkRecords)
	for chunks := 0; ; chunks++ {
		c.fill(rd)
		if c.viewBytes > chunkViewBytes+maxDataLen || len(c.recs) > 2 {
			t.Fatalf("chunk %d holds %d records with %d bytes of view payload", chunks, len(c.recs), c.viewBytes)
		}
		if c.last {
			if c.err != nil || chunks != views {
				t.Fatalf("decoding ended after %d chunks with %v, want %d chunks and the end marker", chunks+1, c.err, views+1)
			}
			break
		}
	}

	rp, err := NewReplay(bytes.NewReader(data), ReplayConfig{})
	if err != nil {
		t.Fatal(err)
	}
	probe := &heapProbe{}
	if err := rp.EM().Register(probe, core.DeliverSync, 0); err != nil {
		t.Fatal(err)
	}
	base := liveHeap()
	if err := rp.Run(); err != nil {
		t.Fatal(err)
	}
	if n := rp.Divergences(); n != views {
		t.Fatalf("%d divergences, want one per orphan view (%d)", n, views)
	}
	// The chunks' record storage comes on top, and a little for the
	// Reader's buffer and the EM.
	pool := chunkCount * chunkRecords * (unsafe.Sizeof(core.Event{}) + (unsafe.Sizeof(Record{})+unsafe.Sizeof(0))/4)
	bound := uint64(chunkCount*(chunkViewBytes+maxDataLen)) + uint64(pool) + 2<<20
	if grew := probe.peak - min(probe.peak, base); grew > bound {
		t.Fatalf("live heap grew by %d bytes during Run, bound %d", grew, bound)
	}
}
