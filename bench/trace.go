package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// The traced run's span recorder. Spans are recorded around the calls the
// benchmark makes into each layer (Machine.StepTick, TapBarrier,
// Multiplexer.Dispatch, Replay.Run) and around the calls the program makes
// back into the benchmark's hooks (exit tap, auditor wrappers, guest view),
// so nesting follows the call stack: an auditor span inside a StepTick span
// is a synchronous delivery, one inside a Dispatch span an asynchronous one.

// spanKind names the layer boundary a span measures.
type spanKind uint8

const (
	spStep         spanKind = iota // hv.Machine.StepTick of a monitored VM
	spStepBare                     // hv.Machine.StepTick of an unmonitored VM
	spBarrier                      // core.ExitStreamTap.TapBarrier
	spDispatch                     // core.Multiplexer.Dispatch
	spDispatchBare                 // Dispatch on an unmonitored VM's empty EM
	spTap                          // capture tap: TapEvent and TapTick
	spReplay                       // capture.Replay.Run
	spView                         // one core.GuestView read
	spHVNew                        // hv.New (per injection run)
	spHVBoot                       // hv.Machine.Boot (per injection run)
	spHTNinja                      // auditor calls, one kind per auditor
	spHRKD
	spGOSHD
	spFleetwatch
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	spStep: "hv.StepTick", spStepBare: "hv.StepTick(unmonitored)",
	spBarrier: "tap.TapBarrier", spDispatch: "core.Dispatch", spDispatchBare: "core.Dispatch(unmonitored)",
	spTap:    "capture.Tap",
	spReplay: "capture.Replay.Run", spView: "guestview.read",
	spHVNew: "hv.New", spHVBoot: "hv.Boot",
	spHTNinja: "auditor.ht-ninja", spHRKD: "auditor.hrkd", spGOSHD: "auditor.goshd",
	spFleetwatch: "auditor.fleetwatch",
}

// auditorKinds maps auditor names to their span kinds.
var auditorKinds = map[string]spanKind{
	"ht-ninja": spHTNinja, "hrkd": spHRKD, "goshd": spGOSHD, "fleetwatch": spFleetwatch,
}

// clockBase anchors nanotime; time.Since reads the monotonic clock.
var clockBase = time.Now()

// nanotime is the span clock: monotonic nanoseconds since process start.
func nanotime() int64 { return int64(time.Since(clockBase)) }

// keepEvery is the span-retention sampling rate: every span under one root
// span in keepEvery is kept for the Chrome trace; aggregates cover all.
const keepEvery = 256

// maxKept bounds the retained spans per tracer.
const maxKept = 1 << 18

type frame struct {
	kind         spanKind
	start, child int64
}

type keptSpan struct {
	kind       spanKind
	tid        int
	start, dur int64
}

// tracer records spans on one goroutine. It takes no locks; concurrent
// goroutines (the campaign's workers) each own one and merge at the end.
type tracer struct {
	stack []frame
	calls [numSpanKinds]uint64
	total [numSpanKinds]int64
	self  [numSpanKinds]int64

	// rootNs sums root-span time inside open windows; windowNs sums the
	// windows themselves. Their gap is wall time no span covers.
	rootNs, windowNs int64
	winStart         int64
	open             bool

	roots uint64
	keep  bool
	// tid is the goroutine's row in the Chrome trace.
	tid  int
	kept []keptSpan
}

// openWindow starts a timed section whose wall time the residual covers.
func (t *tracer) openWindow() {
	t.open = true
	t.winStart = nanotime()
}

func (t *tracer) closeWindow() {
	t.windowNs += nanotime() - t.winStart
	t.open = false
}

func (t *tracer) begin(k spanKind) {
	if len(t.stack) == 0 {
		t.keep = t.roots%keepEvery == 0
		t.roots++
	}
	t.stack = append(t.stack, frame{kind: k, start: nanotime()})
}

// end closes the innermost span and returns its end time.
func (t *tracer) end() int64 {
	now := nanotime()
	top := len(t.stack) - 1
	f := t.stack[top]
	t.stack = t.stack[:top]
	d := now - f.start
	t.calls[f.kind]++
	t.total[f.kind] += d
	t.self[f.kind] += d - f.child
	if top > 0 {
		t.stack[top-1].child += d
	} else if t.open {
		t.rootNs += d
	}
	if t.keep && len(t.kept) < maxKept {
		t.kept = append(t.kept, keptSpan{kind: f.kind, tid: t.tid, start: f.start, dur: d})
	}
	return now
}

// merge folds another goroutine's tracer into t.
func (t *tracer) merge(o *tracer) {
	for k := range t.calls {
		t.calls[k] += o.calls[k]
		t.total[k] += o.total[k]
		t.self[k] += o.self[k]
	}
	t.rootNs += o.rootNs
	t.windowNs += o.windowNs
	if room := maxKept - len(t.kept); room > 0 {
		n := len(o.kept)
		if n > room {
			n = room
		}
		t.kept = append(t.kept, o.kept[:n]...)
	}
}

// chromeEvent is one Chrome-trace "complete" event (Perfetto-loadable).
type chromeEvent struct {
	Name string  `json:"name"`
	Ph   string  `json:"ph"`
	TS   float64 `json:"ts"`
	Dur  float64 `json:"dur"`
	PID  int     `json:"pid"`
	TID  int     `json:"tid"`
}

// writeChrome writes the retained spans as Chrome-trace JSON.
func (t *tracer) writeChrome(path string) error {
	evs := make([]chromeEvent, 0, len(t.kept))
	for _, s := range t.kept {
		evs = append(evs, chromeEvent{
			Name: spanNames[s.kind], Ph: "X", PID: 1, TID: s.tid,
			TS: float64(s.start) / 1e3, Dur: float64(s.dur) / 1e3,
		})
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ns"})
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("writing chrome trace: %w", err)
	}
	return nil
}
