package capture

import (
	"encoding/binary"
	"fmt"
	"io"
	"time"

	"hypertap/internal/arch"
	"hypertap/internal/core"
)

// recorderBufSize is the Recorder's internal buffer. Flushes happen at most
// once per ~150 events, so the underlying writer is off the hot path.
const recorderBufSize = 32 << 10

// Recorder serializes an exit stream as it happens. It implements
// core.ExitStreamTap: install it with Machine.SetExitTap (solo) or
// Host.SetExitTap (fleet), and wrap each VM's GuestView / process counter
// with View / Counter so auditor reads land in the stream too.
//
// The Recorder is single-threaded by construction — the deterministic
// schedule that produces the stream is single-threaded — so it takes no
// locks. The per-event path (recordEvent) is allocation-free; everything
// slow (the io.Writer) runs on buffer flushes only.
type Recorder struct {
	w   io.Writer
	buf []byte
	n   int
	err error
	// ended guards the end marker: Finish is idempotent so epilogue paths
	// (incident sinks, deferred cleanups) can call it without counting.
	ended bool
}

// NewRecorder writes the capture header for hdr and returns a recorder
// appending records to w. A header without a host name is written as v1,
// byte-identical to earlier solo captures; a host name selects the v2
// layout, whose ID column is the slot index.
func NewRecorder(w io.Writer, hdr Header) (*Recorder, error) {
	if len(hdr.VMs) == 0 {
		return nil, fmt.Errorf("capture: header needs at least one VM")
	}
	if len(hdr.VMs) > maxVMHeaders {
		return nil, fmt.Errorf("capture: %d VMs exceeds the format limit %d", len(hdr.VMs), maxVMHeaders)
	}
	if len(hdr.Host) > 255 {
		return nil, fmt.Errorf("capture: host name %q exceeds 255 bytes", hdr.Host)
	}
	for _, vm := range hdr.VMs {
		if len(vm.Name) == 0 || len(vm.Name) > 255 {
			return nil, fmt.Errorf("capture: VM name %q must be 1..255 bytes", vm.Name)
		}
		if vm.VCPUs < 1 || vm.VCPUs > 1<<16-1 {
			return nil, fmt.Errorf("capture: VM %q has %d vCPUs, want 1..65535", vm.Name, vm.VCPUs)
		}
	}
	v2 := hdr.Host != ""
	h := make([]byte, 0, 64)
	h = append(h, magic[:]...)
	if v2 {
		h = append(h, Version, 0)
	} else {
		h = append(h, VersionSolo, 0)
	}
	h = binary.LittleEndian.AppendUint64(h, uint64(hdr.Tick))
	if v2 {
		h = append(h, byte(len(hdr.Host)))
		h = append(h, hdr.Host...)
	}
	h = binary.LittleEndian.AppendUint16(h, uint16(len(hdr.VMs)))
	for i, vm := range hdr.VMs {
		if v2 {
			h = binary.LittleEndian.AppendUint16(h, uint16(i))
		}
		h = append(h, byte(len(vm.Name)))
		h = append(h, vm.Name...)
		h = binary.LittleEndian.AppendUint16(h, uint16(vm.VCPUs))
	}
	if _, err := w.Write(h); err != nil {
		return nil, fmt.Errorf("capture: writing header: %w", err)
	}
	return &Recorder{w: w, buf: make([]byte, recorderBufSize)}, nil
}

var _ core.ExitStreamTap = (*Recorder)(nil)

// TapEvent implements core.ExitStreamTap.
func (r *Recorder) TapEvent(ev *core.Event) { r.recordEvent(ev) }

// recordEvent encodes one decoded event. This is the capture plane's hot
// path: one gated buffer write per published event, no allocation, no lock.
//
//hypertap:hotpath
func (r *Recorder) recordEvent(ev *core.Event) {
	if r.err != nil {
		return
	}
	if len(r.buf)-r.n < maxEventRecSize {
		r.flush()
		if r.err != nil {
			return
		}
	}
	le := binary.LittleEndian
	b := r.buf
	n := r.n
	b[n] = recEvent
	b[n+1] = byte(ev.Type)
	le.PutUint16(b[n+2:], uint16(ev.VM))
	le.PutUint16(b[n+4:], uint16(ev.VCPU))
	le.PutUint64(b[n+6:], ev.Seq)
	le.PutUint64(b[n+14:], uint64(ev.Span))
	le.PutUint64(b[n+22:], uint64(ev.Time))
	b[n+30] = byte(ev.ExitReason)
	n = putRegs(b, n+31, &ev.Regs)
	switch ev.Type {
	case core.EvProcessSwitch:
		le.PutUint64(b[n:], uint64(ev.PDBA))
		n += 8
	case core.EvThreadSwitch:
		le.PutUint64(b[n:], uint64(ev.RSP0))
		le.PutUint64(b[n+8:], uint64(ev.GPA))
		n += 16
	case core.EvSyscall:
		le.PutUint32(b[n:], ev.SyscallNr)
		n += 4
		for i := 0; i < len(ev.SyscallArgs); i++ {
			le.PutUint64(b[n:], ev.SyscallArgs[i])
			n += 8
		}
	case core.EvIOPort:
		le.PutUint16(b[n:], ev.Port)
		b[n+2] = boolByte(ev.IsWrite)
		le.PutUint32(b[n+3:], ev.IOValue)
		n += 7
	case core.EvMMIO, core.EvMemAccess:
		le.PutUint64(b[n:], uint64(ev.GPA))
		le.PutUint64(b[n+8:], uint64(ev.GVA))
		b[n+16] = boolByte(ev.IsWrite)
		n += 17
	case core.EvInterrupt, core.EvRawExit:
		b[n] = ev.Vector
		n++
	case core.EvAPICAccess:
		b[n] = boolByte(ev.IsWrite)
		n++
	case core.EvHalt:
		// No payload.
	case core.EvMSRWrite:
		le.PutUint32(b[n:], uint32(ev.MSR))
		le.PutUint64(b[n+4:], ev.MSRValue)
		n += 12
	case core.EvTSSRelocated:
		le.PutUint64(b[n:], uint64(ev.GVA))
		n += 8
	default:
		// Unknown type (sentinel range ≥ 32, or a future decode): generic
		// payload of every field keeps the round trip an identity.
		le.PutUint64(b[n:], uint64(ev.PDBA))
		le.PutUint64(b[n+8:], uint64(ev.RSP0))
		le.PutUint32(b[n+16:], ev.SyscallNr)
		n += 20
		for i := 0; i < len(ev.SyscallArgs); i++ {
			le.PutUint64(b[n:], ev.SyscallArgs[i])
			n += 8
		}
		le.PutUint16(b[n:], ev.Port)
		b[n+2] = boolByte(ev.IsWrite)
		le.PutUint32(b[n+3:], ev.IOValue)
		b[n+7] = ev.Vector
		le.PutUint32(b[n+8:], uint32(ev.MSR))
		le.PutUint64(b[n+12:], ev.MSRValue)
		le.PutUint64(b[n+20:], uint64(ev.GPA))
		le.PutUint64(b[n+28:], uint64(ev.GVA))
		n += 36
	}
	r.n = n
}

// putRegs encodes an arch.RegisterFile at b[n:] and returns the new offset.
func putRegs(b []byte, n int, regs *arch.RegisterFile) int {
	le := binary.LittleEndian
	le.PutUint64(b[n:], uint64(regs.RIP))
	le.PutUint64(b[n+8:], uint64(regs.RSP))
	le.PutUint64(b[n+16:], uint64(regs.CR3))
	le.PutUint64(b[n+24:], uint64(regs.TR))
	b[n+32] = byte(regs.CPL)
	n += 33
	for i := 0; i < len(regs.GPRs); i++ {
		le.PutUint64(b[n:], regs.GPRs[i])
		n += 8
	}
	return n
}

// boolByte is the 1-byte encoding of a bool.
func boolByte(v bool) byte {
	if v {
		return 1
	}
	return 0
}

// TapTick implements core.ExitStreamTap: one record per VM scheduler tick,
// carrying the clock's target time.
func (r *Recorder) TapTick(vm core.VMID, now time.Duration) {
	if r.err != nil {
		return
	}
	if len(r.buf)-r.n < 11 {
		r.flush()
		if r.err != nil {
			return
		}
	}
	b := r.buf[r.n:]
	b[0] = recTick
	binary.LittleEndian.PutUint16(b[1:], uint16(vm))
	binary.LittleEndian.PutUint64(b[3:], uint64(now))
	r.n += 11
}

// TapBarrier implements core.ExitStreamTap: one record per shared-EM drain.
func (r *Recorder) TapBarrier(now time.Duration) {
	if r.err != nil {
		return
	}
	if len(r.buf)-r.n < 9 {
		r.flush()
		if r.err != nil {
			return
		}
	}
	b := r.buf[r.n:]
	b[0] = recBarrier
	binary.LittleEndian.PutUint64(b[1:], uint64(now))
	r.n += 9
}

// flush drains the internal buffer to the writer. Cold: called once per
// ~recorderBufSize/avg-record-size hot records.
func (r *Recorder) flush() {
	if r.err != nil || r.n == 0 {
		return
	}
	_, err := r.w.Write(r.buf[:r.n])
	r.n = 0
	if err != nil {
		//hypertap:allow hotpath cold: a failed write ends the capture once
		r.err = fmt.Errorf("capture: %w", err)
	}
}

// emit appends one cold, pre-built record.
func (r *Recorder) emit(rec []byte) {
	if r.err != nil {
		return
	}
	if len(r.buf)-r.n < len(rec) {
		r.flush()
		if r.err != nil {
			return
		}
	}
	if len(rec) > len(r.buf) {
		if _, err := r.w.Write(rec); err != nil {
			r.err = fmt.Errorf("capture: %w", err)
		}
		return
	}
	copy(r.buf[r.n:], rec)
	r.n += len(rec)
}

// Finish marks the end of the driven run (Replay.Run stops here) and
// flushes. Recording may continue afterwards: epilogue reads — a
// cross-validation pass performed after the schedule stopped — trail the end
// marker and are popped by the matching post-Run calls on the replay side.
// Call Flush (or Finish again) after such an epilogue: only the first Finish
// writes the marker, later calls just flush.
func (r *Recorder) Finish() error {
	if !r.ended {
		r.ended = true
		r.emit([]byte{recEnd})
	}
	return r.Flush()
}

// Flush forces buffered records to the writer.
func (r *Recorder) Flush() error {
	r.flush()
	return r.err
}

// Err returns the sticky write error, if any.
func (r *Recorder) Err() error { return r.err }

// View wraps a VM's GuestView so every auditor read is recorded in stream
// order. Auditors of the live run must read through the wrapper for the
// capture to be replayable without a guest.
func (r *Recorder) View(view core.GuestView, vm core.VMID) *RecordingView {
	return &RecordingView{r: r, view: view, vm: vm}
}

// Counter wraps a VM's Fig. 3A process counter (hrkd.ProcessCounter) the
// same way.
func (r *Recorder) Counter(inner interface{ CountProcesses() int }, vm core.VMID) *RecordingCounter {
	return &RecordingCounter{r: r, inner: inner, vm: vm}
}

// viewScratch pre-sizes cold view-record builds.
const viewScratch = 64

// viewPrefix builds the common prefix of a view record.
func viewPrefix(vm core.VMID, method byte) []byte {
	rec := make([]byte, 0, viewScratch)
	rec = append(rec, recView)
	rec = binary.LittleEndian.AppendUint16(rec, uint16(vm))
	return append(rec, method)
}

// RecordingView forwards to a live GuestView and records every result.
type RecordingView struct {
	r    *Recorder
	view core.GuestView
	vm   core.VMID
}

var _ core.GuestView = (*RecordingView)(nil)

// NumVCPUs implements core.GuestView. The count is static per VM and lives
// in the capture header; no record is emitted.
func (v *RecordingView) NumVCPUs() int { return v.view.NumVCPUs() }

// Regs implements core.GuestView.
func (v *RecordingView) Regs(vcpu int) arch.RegisterFile {
	regs := v.view.Regs(vcpu)
	rec := viewPrefix(v.vm, viewRegs)
	rec = binary.LittleEndian.AppendUint16(rec, uint16(vcpu))
	var buf [regsSize]byte
	putRegs(buf[:], 0, &regs)
	v.r.emit(append(rec, buf[:]...))
	return regs
}

// ReadGPA implements core.GuestView.
func (v *RecordingView) ReadGPA(gpa arch.GPA, buf []byte) error {
	err := v.view.ReadGPA(gpa, buf)
	rec := viewPrefix(v.vm, viewReadGPA)
	rec = append(rec, boolByte(err != nil))
	data := buf
	if err != nil || len(data) > maxDataLen {
		data = nil
	}
	rec = binary.LittleEndian.AppendUint32(rec, uint32(len(data)))
	v.r.emit(append(rec, data...))
	return err
}

// ReadU64GPA implements core.GuestView.
func (v *RecordingView) ReadU64GPA(gpa arch.GPA) (uint64, error) {
	val, err := v.view.ReadU64GPA(gpa)
	v.emitU64(viewReadU64GPA, val, err)
	return val, err
}

// ReadU32GPA implements core.GuestView.
func (v *RecordingView) ReadU32GPA(gpa arch.GPA) (uint32, error) {
	val, err := v.view.ReadU32GPA(gpa)
	v.emitU32(viewReadU32GPA, val, err)
	return val, err
}

// TranslateGVA implements core.GuestView.
func (v *RecordingView) TranslateGVA(cr3 arch.GPA, gva arch.GVA) (arch.GPA, bool) {
	gpa, ok := v.view.TranslateGVA(cr3, gva)
	rec := viewPrefix(v.vm, viewTranslate)
	rec = append(rec, boolByte(ok))
	rec = binary.LittleEndian.AppendUint64(rec, uint64(gpa))
	v.r.emit(rec)
	return gpa, ok
}

// ReadU64GVA implements core.GuestView.
func (v *RecordingView) ReadU64GVA(cr3 arch.GPA, gva arch.GVA) (uint64, error) {
	val, err := v.view.ReadU64GVA(cr3, gva)
	v.emitU64(viewReadU64GVA, val, err)
	return val, err
}

// ReadU32GVA implements core.GuestView.
func (v *RecordingView) ReadU32GVA(cr3 arch.GPA, gva arch.GVA) (uint32, error) {
	val, err := v.view.ReadU32GVA(cr3, gva)
	v.emitU32(viewReadU32GVA, val, err)
	return val, err
}

// ReadCStringGVA implements core.GuestView.
func (v *RecordingView) ReadCStringGVA(cr3 arch.GPA, gva arch.GVA, max int) (string, error) {
	s, err := v.view.ReadCStringGVA(cr3, gva, max)
	rec := viewPrefix(v.vm, viewReadCString)
	rec = append(rec, boolByte(err != nil))
	str := s
	if err != nil || len(str) > maxStringLen {
		str = ""
	}
	rec = binary.LittleEndian.AppendUint16(rec, uint16(len(str)))
	v.r.emit(append(rec, str...))
	return s, err
}

// Now implements core.GuestView.
func (v *RecordingView) Now() time.Duration {
	now := v.view.Now()
	rec := viewPrefix(v.vm, viewNow)
	rec = binary.LittleEndian.AppendUint64(rec, uint64(now))
	v.r.emit(rec)
	return now
}

// PauseVM implements core.GuestView. Pause/resume are commands, not reads;
// they pass through unrecorded (the replay has no guest to pause).
func (v *RecordingView) PauseVM() { v.view.PauseVM() }

// ResumeVM implements core.GuestView.
func (v *RecordingView) ResumeVM() { v.view.ResumeVM() }

// Paused implements core.GuestView.
func (v *RecordingView) Paused() bool {
	p := v.view.Paused()
	rec := viewPrefix(v.vm, viewPaused)
	v.r.emit(append(rec, boolByte(p)))
	return p
}

// emitU64 records a (uint64, error) read result.
func (v *RecordingView) emitU64(method byte, val uint64, err error) {
	rec := viewPrefix(v.vm, method)
	rec = append(rec, boolByte(err != nil))
	if err != nil {
		val = 0
	}
	rec = binary.LittleEndian.AppendUint64(rec, val)
	v.r.emit(rec)
}

// emitU32 records a (uint32, error) read result.
func (v *RecordingView) emitU32(method byte, val uint32, err error) {
	rec := viewPrefix(v.vm, method)
	rec = append(rec, boolByte(err != nil))
	if err != nil {
		val = 0
	}
	rec = binary.LittleEndian.AppendUint32(rec, val)
	v.r.emit(rec)
}

// RecordingCounter forwards CountProcesses and records the swept count.
type RecordingCounter struct {
	r     *Recorder
	inner interface{ CountProcesses() int }
	vm    core.VMID
}

// CountProcesses implements hrkd.ProcessCounter.
func (c *RecordingCounter) CountProcesses() int {
	n := c.inner.CountProcesses()
	rec := make([]byte, 0, 11)
	rec = append(rec, recCounter)
	rec = binary.LittleEndian.AppendUint16(rec, uint16(c.vm))
	rec = binary.LittleEndian.AppendUint64(rec, uint64(int64(n)))
	c.r.emit(rec)
	return n
}
