package capture

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"

	"hypertap/internal/arch"
	"hypertap/internal/core"
	"hypertap/internal/hav"
)

// ErrUnsupportedVersion marks a well-formed capture written by a different
// format version. Readers fail fast instead of guessing at skewed framing.
var ErrUnsupportedVersion = errors.New("capture: unsupported format version")

// Record is one decoded capture record. Kind selects which fields are set.
type Record struct {
	// Kind is the record kind (event, tick, barrier, view, counter, end).
	Kind byte
	// Event is the decoded event for event records.
	Event core.Event
	// VM is the tagged VM for tick, view and counter records.
	VM core.VMID
	// Now is the virtual time for tick and barrier records.
	Now time.Duration
	// View is the recorded read result for view records.
	View ViewRecord
	// Count is the recorded process count for counter records.
	Count int
}

// ViewRecord is one recorded GuestView read result.
type ViewRecord struct {
	// Method identifies the GuestView method (view* constants).
	Method byte
	// VCPU is the queried vCPU for Regs records.
	VCPU int
	// Regs is the recorded register file for Regs records.
	Regs arch.RegisterFile
	// U64 / U32 / Str / Data carry the method's result value.
	U64  uint64
	U32  uint32
	Str  string
	Data []byte
	// OK is the TranslateGVA / Paused boolean result.
	OK bool
	// Err reports that the recorded read failed. The error text is not
	// preserved; replay surfaces a generic recorded-failure error.
	Err bool
	// Now is the recorded virtual time for Now records.
	Now time.Duration
}

// Reader decodes a capture stream record by record. It is the one place a
// capture's VMIDs are checked: every event, tick, view and counter record
// must name a VM of the header table, so everything downstream indexes per-VM
// state by VMID without a check of its own.
type Reader struct {
	r       *bufio.Reader
	hdr     Header
	version int
	// vms is len(hdr.VMs), the bound every record's VMID is checked against.
	vms int
}

// NewReader parses the capture header and positions the reader at the first
// record. Both header layouts decode; a v2 (hosted) table also carries the
// host name and an ID column, each entry of which must be its slot index.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReaderSize(r, 64<<10)
	var fixed [4 + 1 + 1 + 8]byte
	if _, err := io.ReadFull(br, fixed[:]); err != nil {
		return nil, fmt.Errorf("capture: reading header: %w", err)
	}
	if [4]byte(fixed[:4]) != magic {
		return nil, fmt.Errorf("capture: bad magic %q (not a HyperTap capture)", fixed[:4])
	}
	version := fixed[4]
	if version != VersionSolo && version != Version {
		return nil, fmt.Errorf("%w: stream is v%d, this reader understands v%d and v%d", ErrUnsupportedVersion, version, VersionSolo, Version)
	}
	hdr := Header{Tick: time.Duration(binary.LittleEndian.Uint64(fixed[6:]))}
	if version == Version {
		hostLen, err := br.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("capture: reading host name: %w", err)
		}
		if hostLen > 0 {
			buf := make([]byte, int(hostLen))
			if _, err := io.ReadFull(br, buf); err != nil {
				return nil, fmt.Errorf("capture: reading host name: %w", err)
			}
			hdr.Host = string(buf)
		}
	}
	var count [2]byte
	if _, err := io.ReadFull(br, count[:]); err != nil {
		return nil, fmt.Errorf("capture: reading VM count: %w", err)
	}
	nVMs := int(binary.LittleEndian.Uint16(count[:]))
	if nVMs == 0 {
		return nil, fmt.Errorf("capture: header lists no VMs")
	}
	// The VM table is read incrementally — a hostile count cannot trigger a
	// large up-front allocation, only as many appends as bytes back it up.
	for i := 0; i < nVMs; i++ {
		if version == Version {
			var raw [2]byte
			if _, err := io.ReadFull(br, raw[:]); err != nil {
				return nil, fmt.Errorf("capture: reading VM table: %w", err)
			}
			if id := binary.LittleEndian.Uint16(raw[:]); int(id) != i {
				return nil, fmt.Errorf("%w: VM table slot %d carries VMID %d; only slot-indexed IDs are read", ErrUnsupportedVersion, i, id)
			}
		}
		nameLen, err := br.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("capture: reading VM table: %w", err)
		}
		if nameLen == 0 {
			return nil, fmt.Errorf("capture: VM %d has an empty name", i)
		}
		buf := make([]byte, int(nameLen)+2)
		if _, err := io.ReadFull(br, buf); err != nil {
			return nil, fmt.Errorf("capture: reading VM table: %w", err)
		}
		vcpus := int(binary.LittleEndian.Uint16(buf[nameLen:]))
		if vcpus == 0 {
			return nil, fmt.Errorf("capture: VM %q has zero vCPUs", buf[:nameLen])
		}
		hdr.VMs = append(hdr.VMs, VMHeader{Name: string(buf[:nameLen]), VCPUs: vcpus})
	}
	return &Reader{r: br, hdr: hdr, version: int(version), vms: nVMs}, nil
}

// Header returns the parsed capture header.
func (rd *Reader) Header() Header { return rd.hdr }

// Version returns the format version the stream was written with (VersionSolo
// or Version), as opposed to the newest version this reader understands.
func (rd *Reader) Version() int { return rd.version }

// Next decodes the next record into rec. It returns io.EOF at a clean record
// boundary; a stream that stops mid-record returns a wrapped
// io.ErrUnexpectedEOF instead, so truncation is never silent. Fixed-size
// records decode straight out of the bufio.Reader's buffer, so Next is
// allocation-free for every record but the variable-length ReadGPA and
// C-string views.
func (rd *Reader) Next(rec *Record) error {
	kind, err := rd.r.ReadByte()
	if err != nil {
		if err == io.EOF {
			return io.EOF
		}
		return decodeError("record kind", 0, 0, err)
	}
	*rec = Record{Kind: kind}
	le := binary.LittleEndian
	switch kind {
	case recEvent:
		return rd.readEvent(&rec.Event)
	case recTick:
		b, err := rd.span(10, "tick record")
		if err != nil {
			return err
		}
		if rec.VM = core.VMID(le.Uint16(b)); int(rec.VM) >= rd.vms {
			return vmError("tick", rec.VM, rd.vms)
		}
		rec.Now = time.Duration(le.Uint64(b[2:]))
		rd.consume(10)
		return nil
	case recBarrier:
		b, err := rd.span(8, "barrier record")
		if err != nil {
			return err
		}
		rec.Now = time.Duration(le.Uint64(b))
		rd.consume(8)
		return nil
	case recView:
		return rd.readView(rec)
	case recCounter:
		b, err := rd.span(10, "counter record")
		if err != nil {
			return err
		}
		if rec.VM = core.VMID(le.Uint16(b)); int(rec.VM) >= rd.vms {
			return vmError("counter", rec.VM, rd.vms)
		}
		rec.Count = int(int64(le.Uint64(b[2:])))
		rd.consume(10)
		return nil
	case recEnd:
		return nil
	default:
		return decodeError("unknown record kind", uint64(kind), 0, nil)
	}
}

// span returns the next n bytes of the stream without consuming them: the
// caller decodes straight out of the bufio.Reader's buffer, then consumes
// them. n never exceeds maxEventRecSize, far below the buffer size, so a
// short Peek is always the stream running out (or the underlying reader
// failing), never bufio.ErrBufferFull.
func (rd *Reader) span(n int, what string) ([]byte, error) {
	b, err := rd.r.Peek(n)
	if err != nil {
		return nil, decodeError(what, 0, 0, err)
	}
	return b, nil
}

// consume advances past n bytes a successful span already buffered. Its
// error is dropped because Discard of buffered bytes cannot fail.
func (rd *Reader) consume(n int) { _, _ = rd.r.Discard(n) }

// fill reads an exact variable-length span into b. Past the kind byte,
// running out of input is always truncation.
func (rd *Reader) fill(b []byte, what string) error {
	if _, err := io.ReadFull(rd.r, b); err != nil {
		return decodeError(what, 0, 0, err)
	}
	return nil
}

// decodeError formats every decode failure. It is the decode path's one
// cold exit: the hot-path decoders pass it plain values, never interfaces
// built from their buffers, so formatting and its allocations happen only
// when a stream is damaged. A non-nil err is a short read of what and wraps
// err, with io.EOF turned into io.ErrUnexpectedEOF; a nonzero limit reports
// a length field v over that limit; otherwise v is the offending value.
func decodeError(what string, v, limit uint64, err error) error {
	switch {
	case err != nil:
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		//hypertap:allow hotpath cold exit: formats only a damaged stream's error
		return fmt.Errorf("capture: truncated %s: %w", what, err) //hypertap:allow allocproof same cold exit
	case limit != 0:
		//hypertap:allow hotpath cold exit: formats only a damaged stream's error
		return fmt.Errorf("capture: %s claims %d bytes (limit %d)", what, v, limit) //hypertap:allow allocproof same cold exit
	default:
		//hypertap:allow hotpath cold exit: formats only a damaged stream's error
		return fmt.Errorf("capture: %s %d", what, v) //hypertap:allow allocproof same cold exit
	}
}

// vmError reports a record of the given kind naming a VM outside the
// header's n-VM table. Like decodeError it is a cold exit taking plain
// values; it is kept out of line so its formatting's escapes stay out of
// the hot-path decoders.
//
//go:noinline
func vmError(kind string, vm core.VMID, n int) error {
	//hypertap:allow hotpath cold exit: formats only a damaged stream's error
	return fmt.Errorf("capture: %s record names VM %d, outside the %d-VM header table", kind, vm, n) //hypertap:allow allocproof same cold exit
}

// eventPayload returns the wire size and diagnostic name of event type t's
// payload; unknown types carry the generic payload of every field.
func eventPayload(t core.EventType) (int, string) {
	switch t {
	case core.EvProcessSwitch:
		return 8, "process-switch payload"
	case core.EvThreadSwitch:
		return 16, "thread-switch payload"
	case core.EvSyscall:
		return 4 + 4*8, "syscall payload"
	case core.EvIOPort:
		return 7, "io-port payload"
	case core.EvMMIO, core.EvMemAccess:
		return 17, "memory payload"
	case core.EvInterrupt, core.EvRawExit:
		return 1, "vector payload"
	case core.EvAPICAccess:
		return 1, "apic payload"
	case core.EvHalt:
		return 0, ""
	case core.EvMSRWrite:
		return 12, "msr payload"
	case core.EvTSSRelocated:
		return 8, "tss payload"
	default:
		return genericPayloadSize, "generic payload"
	}
}

// nextEvent decodes the next record into ev if it is an event record — the
// replay's chunk decoder fills a chunk's events slot by slot with it. It
// reports ok when it decoded an event; a record of any other kind is left
// unread (ok false, nil error) for Next. io.EOF marks a clean record
// boundary; any other error is exactly the one Next would return for the
// same bytes.
//
// An event record the buffer already holds whole decodes from one buffered
// span: the kind byte, the fixed head and the payload, then one Discard.
// A record that straddles the buffer end takes Next's checked path.
func (rd *Reader) nextEvent(ev *core.Event) (ok bool, err error) {
	b, _ := rd.r.Peek(rd.r.Buffered()) // buffered bytes only: never reads
	if len(b) > 0 && b[0] != recEvent {
		return false, nil
	}
	if len(b) >= eventFixedSize {
		size, _, err := eventHead(b[1:], rd.vms)
		if err != nil {
			return false, err
		}
		if n := eventFixedSize + size; len(b) >= n {
			decodeEvent(b[1:n], ev)
			rd.consume(n)
			return true, nil
		}
	}
	if b, err = rd.r.Peek(1); err != nil {
		if err == io.EOF {
			return false, io.EOF
		}
		return false, decodeError("record kind", 0, 0, err)
	}
	if b[0] != recEvent {
		return false, nil
	}
	rd.consume(1)
	if err := rd.readEvent(ev); err != nil {
		return false, err
	}
	return true, nil
}

// readEvent decodes an event record body into ev: the fixed head is
// validated before the payload is looked at, then head and payload decode
// from one buffered span.
func (rd *Reader) readEvent(ev *core.Event) error {
	const head = eventFixedSize - 1
	b, err := rd.span(head, "event record")
	if err != nil {
		return err
	}
	size, what, err := eventHead(b, rd.vms)
	if err != nil {
		return err
	}
	if size > 0 {
		if b, err = rd.span(head+size, what); err != nil {
			return err
		}
	}
	decodeEvent(b, ev)
	rd.consume(head + size)
	return nil
}

// eventHead validates an event record's fixed head b (the record past its
// kind byte) against a header table of vms VMs and returns its payload's
// wire size and diagnostic name. Both event decode paths call it, so they
// accept and reject the same records.
func eventHead(b []byte, vms int) (size int, what string, err error) {
	typ := core.EventType(b[0])
	if typ == 0 {
		return 0, "", decodeError("event record has invalid type", 0, 0, nil)
	}
	if vm := core.VMID(binary.LittleEndian.Uint16(b[1:])); int(vm) >= vms {
		return 0, "", vmError("event", vm, vms)
	}
	if reason := hav.ExitReason(b[29]); reason != 0 && !reason.Valid() {
		return 0, "", decodeError("event record has invalid exit reason", uint64(reason), 0, nil)
	}
	size, what = eventPayload(typ)
	return size, what, nil
}

// decodeEvent fills ev from a validated event record b (past its kind byte):
// the fixed head, then the type's payload. Every field the record does not
// carry is zeroed, so ev may be a reused chunk slot.
func decodeEvent(b []byte, ev *core.Event) {
	const head = eventFixedSize - 1
	p := b[head:] // one length check covers every head offset below
	le := binary.LittleEndian
	typ := core.EventType(b[0])
	*ev = core.Event{}
	ev.Type = typ
	ev.VM = core.VMID(le.Uint16(b[1:]))
	ev.VCPU = int(le.Uint16(b[3:]))
	ev.Seq = le.Uint64(b[5:])
	ev.Span = core.SpanID(le.Uint64(b[13:]))
	ev.Time = time.Duration(le.Uint64(b[21:]))
	ev.ExitReason = hav.ExitReason(b[29])
	getRegs(b[30:], &ev.Regs)
	switch typ {
	case core.EvProcessSwitch:
		ev.PDBA = arch.GPA(le.Uint64(p))
	case core.EvThreadSwitch:
		ev.RSP0 = arch.GVA(le.Uint64(p))
		ev.GPA = arch.GPA(le.Uint64(p[8:]))
	case core.EvSyscall:
		ev.SyscallNr = le.Uint32(p)
		for i := range ev.SyscallArgs {
			ev.SyscallArgs[i] = le.Uint64(p[4+8*i:])
		}
	case core.EvIOPort:
		ev.Port = le.Uint16(p)
		ev.IsWrite = p[2] != 0
		ev.IOValue = le.Uint32(p[3:])
	case core.EvMMIO, core.EvMemAccess:
		ev.GPA = arch.GPA(le.Uint64(p))
		ev.GVA = arch.GVA(le.Uint64(p[8:]))
		ev.IsWrite = p[16] != 0
	case core.EvInterrupt, core.EvRawExit:
		ev.Vector = p[0]
	case core.EvAPICAccess:
		ev.IsWrite = p[0] != 0
	case core.EvHalt:
		// No payload.
	case core.EvMSRWrite:
		ev.MSR = arch.MSR(le.Uint32(p))
		ev.MSRValue = le.Uint64(p[4:])
	case core.EvTSSRelocated:
		ev.GVA = arch.GVA(le.Uint64(p))
	default:
		ev.PDBA = arch.GPA(le.Uint64(p))
		ev.RSP0 = arch.GVA(le.Uint64(p[8:]))
		ev.SyscallNr = le.Uint32(p[16:])
		for i := range ev.SyscallArgs {
			ev.SyscallArgs[i] = le.Uint64(p[20+8*i:])
		}
		ev.Port = le.Uint16(p[52:])
		ev.IsWrite = p[54] != 0
		ev.IOValue = le.Uint32(p[55:])
		ev.Vector = p[59]
		ev.MSR = arch.MSR(le.Uint32(p[60:]))
		ev.MSRValue = le.Uint64(p[64:])
		ev.GPA = arch.GPA(le.Uint64(p[72:]))
		ev.GVA = arch.GVA(le.Uint64(p[80:]))
	}
}

// viewResult returns the wire size and diagnostic name of view method m's
// fixed-size result; ok is false for an unknown method. ReadGPA and C-string
// results are followed by their variable-length data.
func viewResult(m byte) (size int, what string, ok bool) {
	switch m {
	case viewRegs:
		return 2 + regsSize, "regs view", true
	case viewReadGPA:
		return 5, "read-gpa view", true
	case viewReadU64GPA, viewReadU64GVA:
		return 9, "u64 view", true
	case viewReadU32GPA, viewReadU32GVA:
		return 5, "u32 view", true
	case viewTranslate:
		return 9, "translate view", true
	case viewReadCString:
		return 3, "cstring view", true
	case viewNow:
		return 8, "now view", true
	case viewPaused:
		return 1, "paused view", true
	}
	return 0, "", false
}

// readView decodes a view record body. The fixed-size part decodes from the
// buffer like an event; ReadGPA data and C strings are read into their own
// buffers.
func (rd *Reader) readView(rec *Record) error {
	const pre = 3
	b, err := rd.span(pre, "view record")
	if err != nil {
		return err
	}
	le := binary.LittleEndian
	if rec.VM = core.VMID(le.Uint16(b)); int(rec.VM) >= rd.vms {
		return vmError("view", rec.VM, rd.vms)
	}
	v := &rec.View
	v.Method = b[2]
	size, what, ok := viewResult(v.Method)
	if !ok {
		return decodeError("unknown view method", uint64(v.Method), 0, nil)
	}
	if b, err = rd.span(pre+size, what); err != nil {
		return err
	}
	b = b[pre:]
	var n uint64 // length of the ReadGPA data or C string that follows
	switch v.Method {
	case viewRegs:
		v.VCPU = int(le.Uint16(b))
		getRegs(b[2:], &v.Regs)
	case viewReadGPA:
		v.Err = b[0] != 0
		n = uint64(le.Uint32(b[1:]))
	case viewReadU64GPA, viewReadU64GVA:
		v.Err = b[0] != 0
		v.U64 = le.Uint64(b[1:])
	case viewReadU32GPA, viewReadU32GVA:
		v.Err = b[0] != 0
		v.U32 = le.Uint32(b[1:])
	case viewTranslate:
		v.OK = b[0] != 0
		v.U64 = le.Uint64(b[1:])
	case viewReadCString:
		v.Err = b[0] != 0
		n = uint64(le.Uint16(b[1:]))
	case viewNow:
		v.Now = time.Duration(le.Uint64(b))
	case viewPaused:
		v.OK = b[0] != 0
	}
	rd.consume(pre + size)
	switch v.Method {
	case viewReadGPA:
		if n > maxDataLen {
			return decodeError("read-gpa view", n, maxDataLen, nil)
		}
		if n > 0 {
			//hypertap:allow allocproof a ReadGPA view's data is the recorded answer replay hands out, so it needs its own storage
			v.Data = make([]byte, n)
			return rd.fill(v.Data, "read-gpa view data")
		}
	case viewReadCString:
		if n > maxStringLen {
			return decodeError("cstring view", n, maxStringLen, nil)
		}
		if n > 0 {
			//hypertap:allow allocproof a C-string view's bytes are read into their own buffer before becoming its answer
			buf := make([]byte, n)
			if err := rd.fill(buf, "cstring view data"); err != nil {
				return err
			}
			//hypertap:allow allocproof a C-string view's answer is a Go string that replay hands out
			v.Str = string(buf)
		}
	}
	return nil
}

// getRegs decodes an arch.RegisterFile from b (regsSize bytes).
func getRegs(b []byte, regs *arch.RegisterFile) {
	b = b[:regsSize] // one length check covers every fixed offset below
	le := binary.LittleEndian
	regs.RIP = arch.GVA(le.Uint64(b[:]))
	regs.RSP = arch.GVA(le.Uint64(b[8:]))
	regs.CR3 = arch.GPA(le.Uint64(b[16:]))
	regs.TR = arch.GVA(le.Uint64(b[24:]))
	regs.CPL = arch.Ring(b[32])
	for i := range regs.GPRs {
		regs.GPRs[i] = le.Uint64(b[33+8*i:])
	}
}
