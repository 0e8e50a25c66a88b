package capture

import (
	"errors"
	"fmt"
	"io"
	"time"

	"hypertap/internal/arch"
	"hypertap/internal/core"
	"hypertap/internal/vclock"
)

// errDivergence is returned by ReplayView reads that have no matching record:
// the replayed auditors asked for something the live ones never read. The
// read counts as a divergence and yields this static error (no guest exists
// to answer it).
var errDivergence = errors.New("capture: replay diverged — read has no matching recorded result")

// errRecordedFailure stands in for a live read error. Only the fact of the
// failure is recorded, not its text; auditors branch on err != nil, never on
// the message, so the stand-in preserves behavior.
var errRecordedFailure = errors.New("capture: recorded guest read failed")

// ReplayConfig tunes a Replay. The zero value is safe for trusted captures;
// fuzzing harnesses set the caps so hostile headers cannot inflate state.
type ReplayConfig struct {
	// MaxVMs caps the attached VM count (0 means DefaultMaxVMs). Streams
	// whose header exceeds it are rejected up front.
	MaxVMs int
	// MaxVCPUs caps each VM's header vCPU count (0 means no cap beyond the
	// format's 65535).
	MaxVCPUs int
	// MaxTick caps a single tick record's forward jump (0 means no cap).
	// Bounds timer cascades when replaying corrupted time values.
	MaxTick time.Duration
	// Flight, when set, is attached to the replay EM so flight rings can be
	// compared against the live run's.
	Flight *core.FlightTable
	// Strict makes divergences (unmatched view reads, trailing records)
	// errors instead of counters.
	Strict bool
}

// DefaultMaxVMs bounds replayed VM tables when ReplayConfig.MaxVMs is zero.
const DefaultMaxVMs = 256

// Replay drives a fresh Event Multiplexer from a capture stream: events are
// re-published, ticks re-advance per-VM virtual clocks, barriers re-drain the
// EM — the exact schedule the live run followed — while auditor GuestView
// reads are answered from the recorded stream. Register the same auditors in
// the same order as the live run and every verdict, telemetry counter and
// flight ring is byte-identical, with no guest anywhere.
//
// Replay is a two-stage pipeline, the paper's logging/auditing split. The
// decoder stage owns the Reader and the chunks it fills and does nothing but
// parse bytes into them; the auditing stage (Run's goroutine, or the
// caller's for reads outside Run) owns the EM, the clocks and the views and
// consumes the chunks in stream order. Inside Run the decoder runs on a
// goroutine of its own once the first chunk fills; everywhere else it runs
// inline. Either way the same records reach the same consumer in the same
// order, so every observable is independent of the schedule.
type Replay struct {
	rd     *Reader
	hdr    Header
	cfg    ReplayConfig
	em     *core.Multiplexer
	clocks []*vclock.Clock

	// cur is the chunk the stream cursor is in; ev and rec index its next
	// event and next other record.
	cur     *chunk
	ev, rec int
	// pinned is the chunk whose events a PublishBatch in flight aliases.
	// A sync auditor's reads can move the cursor past it, but it goes back
	// to the decoder only once that PublishBatch returns.
	pinned *chunk
	// free holds the chunks nothing reads, full the decoded ones in stream
	// order; chunks counts those allocated. Both channels are made with the
	// first chunk and have room for every chunk (free also for halt's nil),
	// so no send ever blocks.
	free, full chan *chunk
	chunks     int
	// running is set inside Run, the only place the decoder goroutine may
	// start. decoding is set until the consumer takes the goroutine's last
	// chunk. stop is non-nil while the goroutine is up; ack carries its
	// start and its exit.
	running, decoding bool
	stop, ack         chan struct{}
	// err latches the first decode error. Once set the stream position is
	// mid-record, so every later read returns err instead of decoding
	// garbage, and Run reports it even when a view pop hit it first.
	err error

	divergences uint64
}

// chunk is one decoded stretch of the stream. Event records go contiguously
// into events, so a run of them republishes straight from the chunk as one
// PublishBatch; every other record goes into recs, with at recording how
// many of the chunk's events precede it.
type chunk struct {
	events []core.Event
	recs   []Record
	at     []int
	// viewBytes is the ReadGPA and C-string payload recs hold.
	viewBytes int
	// last marks the decoder's final chunk: it ends at the end marker, or
	// at err (io.EOF at a clean record boundary, else a decode error).
	last bool
	err  error
}

// Chunk bounds. A chunk ends after cap(events) records, once recs is full,
// or once it holds chunkViewBytes of view payload, so the read-ahead is
// bounded by chunkCount × (chunkViewBytes + maxDataLen) of payload however
// hostile the capture is, and by chunkCount × chunkRecords decoded records.
// Every stream starts in one firstChunkRecords chunk, so a capture shorter
// than that (most fuzz inputs and unit tests) allocates only it; Run
// allocates the rest when it starts the decoder goroutine. Tick and
// barrier records are 14% of an 8-VM fleet capture's records, so recs
// holds a quarter of a chunk's; a chunk whose recs fill ends early.
const (
	chunkCount        = 4
	chunkRecords      = 2048
	firstChunkRecords = 256
	chunkViewBytes    = 64 << 10
)

// spareChunks keeps one replay's full-size chunks between replays: Run takes
// them when it starts the decoder, and halt hands back every one nothing is
// left to read in. A process replaying one capture after another would
// otherwise allocate, zero and collect megabytes of chunks per replay.
// Chunks beyond its room (replays running side by side) are left to the
// garbage collector.
var spareChunks = make(chan *chunk, chunkCount-1)

// newChunk allocates a chunk of up to records records.
func newChunk(records int) *chunk {
	return &chunk{
		events: make([]core.Event, 0, records),
		recs:   make([]Record, 0, records/4),
		at:     make([]int, 0, records/4),
	}
}

// maxReplayBatch bounds one republished run of events. Honest captures end
// runs often (every tick, barrier and sync read), so the cap only bites on
// hostile captures that repeat one event record forever.
const maxReplayBatch = 256

// NewReplay parses the capture header from r and builds the replay plane:
// one EM with the recorded VMs attached under their recorded names (so actor
// and route tables line up) and one virtual clock per VM.
func NewReplay(r io.Reader, cfg ReplayConfig) (*Replay, error) {
	rd, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	hdr := rd.Header()
	maxVMs := cfg.MaxVMs
	if maxVMs <= 0 {
		maxVMs = DefaultMaxVMs
	}
	if len(hdr.VMs) > maxVMs {
		return nil, fmt.Errorf("capture: header lists %d VMs, replay cap is %d", len(hdr.VMs), maxVMs)
	}
	for _, vm := range hdr.VMs {
		if cfg.MaxVCPUs > 0 && vm.VCPUs > cfg.MaxVCPUs {
			return nil, fmt.Errorf("capture: VM %q has %d vCPUs, replay cap is %d", vm.Name, vm.VCPUs, cfg.MaxVCPUs)
		}
	}
	rp := &Replay{rd: rd, hdr: hdr, em: core.NewMultiplexer(), cfg: cfg}
	if cfg.Flight != nil {
		rp.em.SetFlight(cfg.Flight)
	}
	for _, vm := range hdr.VMs {
		if _, err := rp.em.AttachVM(vm.Name); err != nil {
			return nil, fmt.Errorf("capture: attaching recorded VM: %w", err)
		}
		rp.clocks = append(rp.clocks, &vclock.Clock{})
	}
	return rp, nil
}

// EM returns the replay's Event Multiplexer. Register auditors on it — in
// the same order as the live run, for identical actor IDs — before Run.
func (rp *Replay) EM() *core.Multiplexer { return rp.em }

// Header returns the capture header.
func (rp *Replay) Header() Header { return rp.hdr }

// Clock returns VM vm's replay clock (GOSHD's Config.Clock and timer base).
func (rp *Replay) Clock(vm core.VMID) *vclock.Clock {
	if int(vm) >= len(rp.clocks) {
		panic(fmt.Sprintf("capture: Clock(%d): VM not in the capture header", vm))
	}
	return rp.clocks[vm]
}

// Divergences counts reads and records that did not line up with the live
// run. Zero after a clean replay of an intact capture.
func (rp *Replay) Divergences() uint64 { return rp.divergences }

// Run drives the schedule: every event, tick and barrier replays in recorded
// order, with auditor reads answered from the stream as they happen. Each
// run of consecutive event records, up to the next other record, republishes
// as one PublishBatch (one EM lock round trip per run, not per event). This
// is sound because sync delivery stays event-major within a batch, and any
// view, counter, tick or barrier record ends the run: a sync read a live
// delivery made lands in the stream after the event that caused it, so the
// replayed read finds it, and no batch straddles a Dispatch barrier.
// Batching is otherwise transparent to every downstream observable (see
// core.PublishBatch), so the live run's batch boundaries need not match.
//
// Run stops at the end marker (or a clean EOF at a record boundary — a
// capture snapshotted mid-run, e.g. from an incident bundle) so epilogue
// reads can follow via View/Counter. View or counter records encountered
// directly are orphans — recorded reads the replayed auditors never
// performed — and count as divergences (errors under Strict). A damaged
// stream is an error however it is reached: the first decode error is
// returned, after the events decoded before it are published, even when an
// auditor's read ran into it first. The decoder goroutine is joined on
// every return, a panicking auditor's included.
func (rp *Replay) Run() error {
	rp.running = true
	defer rp.halt()
	for {
		rec, err := rp.peek()
		switch {
		case err == io.EOF:
			return nil
		case err != nil:
			return err
		case rec == nil:
			rp.publishRun()
			continue
		}
		kind, vm, now := rec.Kind, rec.VM, rec.Now
		rp.rec++
		switch kind {
		case recTick:
			if rp.cfg.MaxTick > 0 {
				if cur := rp.clocks[vm].Now(); now > cur+rp.cfg.MaxTick {
					now = cur + rp.cfg.MaxTick
				}
			}
			rp.clocks[vm].AdvanceTo(now)
		case recBarrier:
			rp.em.Dispatch(0)
		case recView, recCounter:
			rp.divergences++
			if rp.cfg.Strict {
				return fmt.Errorf("capture: orphan %s record (no replayed auditor performed this read)", KindName(kind))
			}
		case recEnd:
			return nil
		}
	}
}

// publishRun republishes the run of events at the cursor, up to the
// chunk's next other record and at most maxReplayBatch, straight from the
// chunk. PublishBatch copies each event into the async rings it queues on,
// so only the sync deliveries read the chunk, and they are done when it
// returns: the chunk stays pinned until then.
func (rp *Replay) publishRun() {
	c := rp.cur
	end := len(c.events)
	if rp.rec < len(c.recs) {
		end = c.at[rp.rec]
	}
	end = min(end, rp.ev+maxReplayBatch)
	run := c.events[rp.ev:end]
	rp.ev = end
	rp.pinned = c
	rp.em.PublishBatch(run)
	rp.pinned = nil
	if rp.cur != c {
		rp.free <- c
	}
}

// peek returns the record at the cursor without consuming it, or nil when
// the cursor is at an event. io.EOF (a clean record boundary) is returned as
// is; any other error is latched. The record stays valid until the next
// peek, which is when an exhausted chunk goes back to the decoder.
func (rp *Replay) peek() (*Record, error) {
	for rp.err == nil {
		if c := rp.cur; c != nil {
			if rp.rec < len(c.recs) && c.at[rp.rec] == rp.ev {
				return &c.recs[rp.rec], nil
			}
			if rp.ev < len(c.events) {
				return nil, nil
			}
			err := c.err
			rp.cur = nil
			if c != rp.pinned {
				rp.free <- c
			}
			if err == io.EOF {
				return nil, io.EOF
			}
			rp.err = err
		}
		rp.cur, rp.ev, rp.rec = rp.fetch(), 0, 0
	}
	return nil, rp.err
}

// fetch returns the next decoded chunk: from the decoder goroutine while it
// is up, else one a stopped decoder left behind, else one decoded inline.
// Inside Run, a chunk decoded inline that filled without ending the stream
// starts the goroutine on the rest.
func (rp *Replay) fetch() *chunk {
	if rp.decoding {
		c := <-rp.full
		rp.decoding = !c.last
		return c
	}
	var c *chunk
	select {
	case c = <-rp.full:
		return c
	default:
	}
	select {
	case c = <-rp.free:
	default:
		// Nothing is free before the first chunk, or while the only
		// other chunk is pinned.
		if rp.free == nil {
			rp.free, rp.full = make(chan *chunk, chunkCount+1), make(chan *chunk, chunkCount)
		}
		c = newChunk(firstChunkRecords)
		rp.chunks++
	}
	c.fill(rp.rd)
	if rp.running && rp.stop == nil && !c.last {
		for ; rp.chunks < chunkCount; rp.chunks++ {
			select {
			case c := <-spareChunks:
				rp.free <- c
			default:
				rp.free <- newChunk(chunkRecords)
			}
		}
		rp.stop, rp.ack = make(chan struct{}), make(chan struct{})
		rp.decoding = true
		go decode(rp.rd, rp.free, rp.full, rp.stop, rp.ack)
		// Wait for the goroutine to start, so that it first runs on the P
		// this goroutine leaves. Both then mostly take the runtime's
		// per-P goroutine and wait-queue entries from, and give them back
		// to, the P the caller ends up on, so how often Run allocates
		// depends less on the schedule.
		<-rp.ack
	}
	return c
}

// decode is the decoder goroutine: it fills free chunks from rd and hands
// them on in stream order, blocking while every chunk is full. It returns
// at a nil chunk, or once stop closes after its last chunk. It touches
// nothing but rd and the chunks.
func decode(rd *Reader, free <-chan *chunk, full chan<- *chunk, stop <-chan struct{}, ack chan<- struct{}) {
	defer close(ack)
	ack <- struct{}{}
	for c := <-free; c != nil; c = <-free {
		c.fill(rd)
		full <- c
		if c.last {
			<-stop
			return
		}
	}
}

// halt ends Run: it stops and joins the decoder goroutine, leaving the
// chunks it decoded readable in stream order, frees a chunk a panicking
// PublishBatch left pinned, and hands every full-size chunk nothing is left
// to read in back to spareChunks. Reads after Run decode into the first chunk.
func (rp *Replay) halt() {
	rp.running = false
	if rp.stop != nil {
		close(rp.stop)
		rp.free <- nil
		<-rp.ack
		rp.stop, rp.ack, rp.decoding = nil, nil, false
	}
	if c := rp.pinned; c != nil {
		rp.pinned = nil
		if c != rp.cur {
			rp.free <- c
		}
	}
	if c := rp.cur; c != nil && rp.ev == len(c.events) && rp.rec == len(c.recs) && c.err == nil {
		rp.cur = nil
		rp.free <- c
	}
	for range len(rp.free) {
		c := <-rp.free
		if c == nil {
			continue
		}
		if cap(c.events) != chunkRecords {
			rp.free <- c
			continue
		}
		rp.chunks--
		select {
		case spareChunks <- c:
		default:
		}
	}
}

// fill decodes the next stretch of rd into c, reusing its storage. It stops
// at c's record or view-payload bound, and marks c last at the end marker,
// at EOF or at a decode error. Whatever ends the stream is left in c.err
// for the consumer to reach in stream order.
//
//hypertap:hotpath
func (c *chunk) fill(rd *Reader) {
	if c.viewBytes > 0 {
		for i := range c.recs {
			c.recs[i].View.Data, c.recs[i].View.Str = nil, ""
		}
	}
	c.events, c.recs, c.at = c.events[:0], c.recs[:0], c.at[:0]
	c.viewBytes, c.last, c.err = 0, false, nil
	for len(c.events)+len(c.recs) < cap(c.events) && len(c.recs) < cap(c.recs) && c.viewBytes < chunkViewBytes {
		n := len(c.events)
		c.events = c.events[:n+1]
		ok, err := rd.nextEvent(&c.events[n])
		if ok {
			continue
		}
		c.events = c.events[:n]
		if err == nil {
			i := len(c.recs)
			c.recs, c.at = c.recs[:i+1], c.at[:i+1]
			rec := &c.recs[i]
			if err = rd.Next(rec); err == nil {
				c.at[i] = n
				c.viewBytes += len(rec.View.Data) + len(rec.View.Str)
				if rec.Kind == recEnd {
					c.last = true
					return
				}
				continue
			}
			*rec = Record{}
			c.recs, c.at = c.recs[:i], c.at[:i]
		}
		c.last, c.err = true, err
		return
	}
}

// popView consumes the next record if it is a view record for (vm, method);
// any other shape is a divergence and the record stays put.
func (rp *Replay) popView(vm core.VMID, method byte) (*ViewRecord, bool) {
	rec, err := rp.peek()
	if err != nil || rec == nil || rec.Kind != recView || rec.VM != vm || rec.View.Method != method {
		rp.divergences++
		return nil, false
	}
	rp.rec++
	return &rec.View, true
}

// KindName names a record kind for diagnostics.
func KindName(kind byte) string {
	switch kind {
	case recEvent:
		return "event"
	case recTick:
		return "tick"
	case recBarrier:
		return "barrier"
	case recView:
		return "view"
	case recCounter:
		return "counter"
	case recEnd:
		return "end"
	default:
		return fmt.Sprintf("kind-%d", kind)
	}
}

// View returns VM vm's replay-side GuestView: reads are answered from the
// recorded stream in issue order. Hand it to the same auditors the live run
// wrapped with Recorder.View.
func (rp *Replay) View(vm core.VMID) *ReplayView {
	if int(vm) >= len(rp.hdr.VMs) {
		panic(fmt.Sprintf("capture: View(%d): VM not in the capture header", vm))
	}
	return &ReplayView{rp: rp, vm: vm}
}

// Counter returns VM vm's replay-side process counter.
func (rp *Replay) Counter(vm core.VMID) *ReplayCounter {
	return &ReplayCounter{rp: rp, vm: vm}
}

// ReplayView answers GuestView reads from the capture stream. Reads pop
// records in order; a read with no matching record is a divergence and
// returns a zero value with errDivergence.
type ReplayView struct {
	rp *Replay
	vm core.VMID
}

var _ core.GuestView = (*ReplayView)(nil)

// NumVCPUs implements core.GuestView from the capture header.
func (v *ReplayView) NumVCPUs() int { return v.rp.hdr.VMs[v.vm].VCPUs }

// Regs implements core.GuestView.
func (v *ReplayView) Regs(vcpu int) arch.RegisterFile {
	rec, ok := v.rp.popView(v.vm, viewRegs)
	if !ok || rec.VCPU != vcpu {
		if ok {
			v.rp.divergences++
		}
		return arch.RegisterFile{}
	}
	return rec.Regs
}

// ReadGPA implements core.GuestView.
func (v *ReplayView) ReadGPA(gpa arch.GPA, buf []byte) error {
	rec, ok := v.rp.popView(v.vm, viewReadGPA)
	if !ok {
		return errDivergence
	}
	if rec.Err {
		return errRecordedFailure
	}
	if len(rec.Data) != len(buf) {
		v.rp.divergences++
		return errDivergence
	}
	copy(buf, rec.Data)
	return nil
}

// ReadU64GPA implements core.GuestView.
func (v *ReplayView) ReadU64GPA(gpa arch.GPA) (uint64, error) {
	return v.popU64(viewReadU64GPA)
}

// ReadU32GPA implements core.GuestView.
func (v *ReplayView) ReadU32GPA(gpa arch.GPA) (uint32, error) {
	return v.popU32(viewReadU32GPA)
}

// TranslateGVA implements core.GuestView.
func (v *ReplayView) TranslateGVA(cr3 arch.GPA, gva arch.GVA) (arch.GPA, bool) {
	rec, ok := v.rp.popView(v.vm, viewTranslate)
	if !ok {
		return 0, false
	}
	return arch.GPA(rec.U64), rec.OK
}

// ReadU64GVA implements core.GuestView.
func (v *ReplayView) ReadU64GVA(cr3 arch.GPA, gva arch.GVA) (uint64, error) {
	return v.popU64(viewReadU64GVA)
}

// ReadU32GVA implements core.GuestView.
func (v *ReplayView) ReadU32GVA(cr3 arch.GPA, gva arch.GVA) (uint32, error) {
	return v.popU32(viewReadU32GVA)
}

// ReadCStringGVA implements core.GuestView.
func (v *ReplayView) ReadCStringGVA(cr3 arch.GPA, gva arch.GVA, max int) (string, error) {
	rec, ok := v.rp.popView(v.vm, viewReadCString)
	if !ok {
		return "", errDivergence
	}
	if rec.Err {
		return "", errRecordedFailure
	}
	return rec.Str, nil
}

// Now implements core.GuestView.
func (v *ReplayView) Now() time.Duration {
	rec, ok := v.rp.popView(v.vm, viewNow)
	if !ok {
		return 0
	}
	return rec.Now
}

// PauseVM implements core.GuestView. Commands were not recorded; there is no
// guest to pause.
func (v *ReplayView) PauseVM() {}

// ResumeVM implements core.GuestView.
func (v *ReplayView) ResumeVM() {}

// Paused implements core.GuestView.
func (v *ReplayView) Paused() bool {
	rec, ok := v.rp.popView(v.vm, viewPaused)
	if !ok {
		return false
	}
	return rec.OK
}

// popU64 pops a (uint64, error) read result.
func (v *ReplayView) popU64(method byte) (uint64, error) {
	rec, ok := v.rp.popView(v.vm, method)
	if !ok {
		return 0, errDivergence
	}
	if rec.Err {
		return 0, errRecordedFailure
	}
	return rec.U64, nil
}

// popU32 pops a (uint32, error) read result.
func (v *ReplayView) popU32(method byte) (uint32, error) {
	rec, ok := v.rp.popView(v.vm, method)
	if !ok {
		return 0, errDivergence
	}
	if rec.Err {
		return 0, errRecordedFailure
	}
	return rec.U32, nil
}

// ReplayCounter answers hrkd.ProcessCounter sweeps from the stream.
type ReplayCounter struct {
	rp *Replay
	vm core.VMID
}

// CountProcesses implements hrkd.ProcessCounter.
func (c *ReplayCounter) CountProcesses() int {
	rec, err := c.rp.peek()
	if err != nil || rec == nil || rec.Kind != recCounter || rec.VM != c.vm {
		c.rp.divergences++
		return 0
	}
	c.rp.rec++
	return rec.Count
}
