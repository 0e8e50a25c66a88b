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
type Replay struct {
	rd     *Reader
	hdr    Header
	cfg    ReplayConfig
	em     *core.Multiplexer
	clocks []*vclock.Clock

	// pending is the one-record lookahead shared by Run and the view pops.
	pending    Record
	hasPending bool
	// err latches the first decode error. Once set the stream position is
	// mid-record, so every later read returns err instead of decoding
	// garbage, and Run reports it even when a view pop or a batch lookahead
	// hit it first.
	err error

	divergences uint64
	// batch is the reusable publish buffer: every run of consecutive event
	// records, up to the next non-event record, decodes straight into its
	// slots — no intermediate Record — and republishes as one PublishBatch
	// (one EM lock round trip per run, not per event). PublishBatch copies
	// each event into the async rings it queues on, so the slots are free
	// to reuse once it returns. This is sound because sync delivery stays
	// event-major within a batch, and any view, counter, tick or barrier
	// record ends the run: a sync read a live delivery made lands in the
	// stream after the event that caused it, so the replayed read finds it,
	// and no batch straddles a Dispatch barrier. Batching is otherwise
	// transparent to every downstream observable (see core.PublishBatch),
	// so the live run's batch boundaries need not match.
	batch []core.Event
}

// maxReplayBatch bounds one regrouped publish batch, and with it the
// scratch buffer. Honest captures end runs often (every tick, barrier and
// sync read), so the cap only bites on hostile captures that repeat one
// event record forever.
const maxReplayBatch = 256

// NewReplay parses the capture header from r and builds the replay plane:
// one EM with the recorded VMs attached under their recorded names (so actor
// and route tables line up), one virtual clock per VM.
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
	rp := &Replay{rd: rd, hdr: hdr, em: core.NewMultiplexer(), cfg: cfg,
		batch: make([]core.Event, 0, maxReplayBatch)}
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
// order, with auditor reads answered from the stream as they happen. It
// stops at the end marker (or a clean EOF at a record boundary — a capture
// snapshotted mid-run, e.g. from an incident bundle) so epilogue reads can
// follow via View/Counter. View or counter records encountered directly are
// orphans — recorded reads the replayed auditors never performed — and count
// as divergences (errors under Strict). A damaged stream is an error however
// it is reached: the first decode error is returned even when a batch
// run's decoding or an auditor's read ran into it.
func (rp *Replay) Run() error {
	for {
		if rp.readEvents() {
			rp.em.PublishBatch(rp.batch)
			continue
		}
		rec, err := rp.next()
		if err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
		switch rec.Kind {
		case recEvent:
			// Only a reader that yields data after reporting EOF gets
			// here; put the record back so readEvents starts a run with it.
			rp.hasPending = true
		case recTick:
			target := rec.Now
			if rp.cfg.MaxTick > 0 {
				if now := rp.clocks[rec.VM].Now(); target > now+rp.cfg.MaxTick {
					target = now + rp.cfg.MaxTick
				}
			}
			rp.clocks[rec.VM].AdvanceTo(target)
		case recBarrier:
			rp.em.Dispatch(0)
		case recView, recCounter:
			rp.divergences++
			if rp.cfg.Strict {
				return fmt.Errorf("capture: orphan %s record (no replayed auditor performed this read)", KindName(rec.Kind))
			}
		case recEnd:
			return nil
		}
	}
}

// readEvents decodes the run of event records at the stream position, up
// to maxReplayBatch, into rp.batch and reports whether it holds any. A
// pending event record (one an auditor's read peeked at) starts the run.
// Whatever ends the run — a record of another kind, a clean EOF, a decode
// error — is left for next: the record stays unread, and the error is
// latched so the next read returns it, after the events decoded before it
// have been published.
func (rp *Replay) readEvents() bool {
	rp.batch = rp.batch[:0]
	if rp.err != nil {
		return false
	}
	if rp.hasPending {
		if rp.pending.Kind != recEvent {
			return false
		}
		rp.batch = append(rp.batch, rp.pending.Event)
		rp.hasPending = false
	}
	for n := len(rp.batch); n < maxReplayBatch; n++ {
		rp.batch = rp.batch[:n+1]
		ok, err := rp.rd.nextEvent(&rp.batch[n])
		if !ok {
			rp.batch = rp.batch[:n]
			if err != nil && err != io.EOF {
				rp.err = err
			}
			break
		}
	}
	return len(rp.batch) > 0
}

// next returns the next record, honoring the one-record lookahead.
func (rp *Replay) next() (*Record, error) {
	rec, err := rp.peek()
	rp.hasPending = false
	return rec, err
}

// peek exposes the next record without consuming it. io.EOF (a clean
// record boundary) is returned as is; any other error is latched.
func (rp *Replay) peek() (*Record, error) {
	if rp.err != nil {
		return nil, rp.err
	}
	if !rp.hasPending {
		if err := rp.rd.Next(&rp.pending); err != nil {
			if err != io.EOF {
				rp.err = err
			}
			return nil, err
		}
		rp.hasPending = true
	}
	return &rp.pending, nil
}

// popView consumes the next record if it is a view record for (vm, method);
// any other shape is a divergence and the record stays put.
func (rp *Replay) popView(vm core.VMID, method byte) (*ViewRecord, bool) {
	rec, err := rp.peek()
	if err != nil || rec.Kind != recView || rec.VM != vm || rec.View.Method != method {
		rp.divergences++
		return nil, false
	}
	rp.hasPending = false
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
	if err != nil || rec.Kind != recCounter || rec.VM != c.vm {
		c.rp.divergences++
		return 0
	}
	c.rp.hasPending = false
	return rec.Count
}
