// Package vmi implements traditional Virtual Machine Introspection: decoding
// the guest OS's internal data structures from outside the VM, in the style
// of VMWatcher/XenAccess.
//
// This is deliberately the *OS-invariant* view the paper criticizes: it
// trusts the guest kernel's task list and structure contents. It cannot be
// tampered with from outside the VM, but software inside the VM — a DKOM
// rootkit unlinking a task_struct — changes exactly the bytes this package
// decodes. HyperTap's auditors use it only as the untrusted side of a
// cross-view comparison, never as the root of trust.
package vmi

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"

	"hypertap/internal/arch"
	"hypertap/internal/core"
	"hypertap/internal/guest"
)

// Introspector decodes guest kernel structures through the hypervisor's
// guest-memory helper API plus an OS profile (structure layouts and the
// kernel symbol map, as a real deployment gets from System.map and debug
// info).
type Introspector struct {
	view core.GuestView
	sym  guest.Symbols

	// hdrMu guards hdrBuf, the landing buffer of readHeader's physical
	// read. A buffer handed to an interface method escapes, so a local one
	// would cost an allocation per check.
	hdrMu  sync.Mutex
	hdrBuf [taskHeaderLen]byte
}

// New creates an introspector for one VM.
func New(view core.GuestView, sym guest.Symbols) *Introspector {
	if view == nil {
		panic("vmi: nil GuestView")
	}
	return &Introspector{view: view, sym: sym}
}

// walkRoot finds a CR3 that can translate kernel addresses. Kernel mappings
// are shared by every live address space, so any vCPU's current CR3 works.
func (in *Introspector) walkRoot() (arch.GPA, error) {
	for i := 0; i < in.view.NumVCPUs(); i++ {
		cr3 := in.view.Regs(i).CR3
		if cr3 == 0 {
			continue
		}
		if _, ok := in.view.TranslateGVA(cr3, in.sym.InitTask); ok {
			return cr3, nil
		}
	}
	return 0, fmt.Errorf("vmi: no vCPU holds a kernel-mapping CR3")
}

// maxTasks bounds list walks against corrupted (or adversarial) lists.
const maxTasks = 8192

// ListProcesses walks the guest task list exactly as in-guest /proc does and
// decodes each task_struct. A DKOM-hidden task will be absent; that is the
// point of using this view for cross-validation.
func (in *Introspector) ListProcesses() ([]guest.ProcEntry, error) {
	cr3, err := in.walkRoot()
	if err != nil {
		return nil, err
	}
	var out []guest.ProcEntry
	head := in.sym.InitTask
	cur := head
	for i := 0; i < maxTasks; i++ {
		entry, err := in.decodeTask(cr3, cur)
		if err != nil {
			return nil, err
		}
		out = append(out, entry)
		next, err := in.view.ReadU64GVA(cr3, cur+guest.TaskOffListNext)
		if err != nil {
			return nil, err
		}
		cur = arch.GVA(next)
		if cur == head {
			return out, nil
		}
	}
	return nil, fmt.Errorf("vmi: task list did not close after %d entries", maxTasks)
}

// decodeTask reads one serialized task_struct.
func (in *Introspector) decodeTask(cr3 arch.GPA, gva arch.GVA) (guest.ProcEntry, error) {
	t := Task{in: in, cr3: cr3}
	if err := in.readFields(cr3, gva, &t.hdr); err != nil {
		return guest.ProcEntry{}, err
	}
	return t.entry(), nil
}

// taskHeaderLen spans the task_struct fields a decode needs: pid through
// comm.
const taskHeaderLen = guest.TaskOffComm + guest.TaskCommLen

// taskHeader is the decoded fixed-offset prefix of a task_struct.
type taskHeader struct {
	pid, uid, euid, gid, state uint32
	parent                     arch.GVA
	comm                       [guest.TaskCommLen]byte
	commLen                    int
}

// readHeader decodes the task_struct header at gva with one translation and
// one physical read. A header that straddles a page, or that cannot be read
// that way, is read field by field instead.
func (in *Introspector) readHeader(cr3 arch.GPA, gva arch.GVA, h *taskHeader) error {
	if uint64(gva)%arch.PageSize+taskHeaderLen <= arch.PageSize {
		if gpa, ok := in.view.TranslateGVA(cr3, gva); ok && in.loadHeader(gpa, h) {
			return nil
		}
	}
	return in.readFields(cr3, gva, h)
}

// loadHeader reads the header at gpa into hdrBuf and decodes it, reporting
// whether the read succeeded.
func (in *Introspector) loadHeader(gpa arch.GPA, h *taskHeader) bool {
	in.hdrMu.Lock()
	defer in.hdrMu.Unlock()
	buf := &in.hdrBuf
	if in.view.ReadGPA(gpa, buf[:]) != nil {
		return false
	}
	le := binary.LittleEndian
	h.pid = le.Uint32(buf[guest.TaskOffPID:])
	h.uid = le.Uint32(buf[guest.TaskOffUID:])
	h.euid = le.Uint32(buf[guest.TaskOffEUID:])
	h.gid = le.Uint32(buf[guest.TaskOffGID:])
	h.state = le.Uint32(buf[guest.TaskOffState:])
	h.parent = arch.GVA(le.Uint64(buf[guest.TaskOffParent:]))
	comm := buf[guest.TaskOffComm:]
	if i := bytes.IndexByte(comm, 0); i >= 0 {
		comm = comm[:i]
	}
	h.commLen = copy(h.comm[:], comm)
	return true
}

// readFields decodes the task_struct header at gva one field at a time, in
// the order a listing walk has always read them. Any failed read fails the
// decode: a zero left in place of an unreadable euid would read as root.
func (in *Introspector) readFields(cr3 arch.GPA, gva arch.GVA, h *taskHeader) error {
	fail := func(field string, err error) error {
		return fmt.Errorf("vmi: decode task at %#x: %s: %w", uint64(gva), field, err)
	}
	var err error
	if h.pid, err = in.view.ReadU32GVA(cr3, gva+guest.TaskOffPID); err != nil {
		return fail("pid", err)
	}
	if h.uid, err = in.view.ReadU32GVA(cr3, gva+guest.TaskOffUID); err != nil {
		return fail("uid", err)
	}
	if h.euid, err = in.view.ReadU32GVA(cr3, gva+guest.TaskOffEUID); err != nil {
		return fail("euid", err)
	}
	if h.gid, err = in.view.ReadU32GVA(cr3, gva+guest.TaskOffGID); err != nil {
		return fail("gid", err)
	}
	if h.state, err = in.view.ReadU32GVA(cr3, gva+guest.TaskOffState); err != nil {
		return fail("state", err)
	}
	comm, err := in.view.ReadCStringGVA(cr3, gva+guest.TaskOffComm, guest.TaskCommLen)
	if err != nil {
		return fail("comm", err)
	}
	h.commLen = copy(h.comm[:], comm)
	parent, err := in.view.ReadU64GVA(cr3, gva+guest.TaskOffParent)
	if err != nil {
		return fail("parent", err)
	}
	h.parent = arch.GVA(parent)
	return nil
}

// Task is one task_struct found by the architectural derivation, with its
// header decoded. The parent's fields are read only when asked for, so a
// policy check pays for the inputs its rule actually reaches.
type Task struct {
	in  *Introspector
	cr3 arch.GPA
	hdr taskHeader
}

// PID returns the task's process id.
func (t *Task) PID() int { return int(t.hdr.pid) }

// EUID returns the task's effective user id.
func (t *Task) EUID() uint32 { return t.hdr.euid }

// Comm returns the task's command name. The bytes alias t; a map lookup
// keyed by string(t.Comm()) does not allocate.
func (t *Task) Comm() []byte { return t.hdr.comm[:t.hdr.commLen] }

// ParentUID reads the real user id of the task's parent. A nil or unreadable
// parent reads as 0, as in a full decode.
func (t *Task) ParentUID() uint32 {
	uid, _ := t.parentU32(guest.TaskOffUID)
	return uid
}

// parentU32 reads a u32 field of the parent's task_struct.
func (t *Task) parentU32(off arch.GVA) (uint32, bool) {
	if t.hdr.parent == 0 {
		return 0, false
	}
	v, err := t.in.view.ReadU32GVA(t.cr3, t.hdr.parent+off)
	return v, err == nil
}

// entry completes the decode into a listing entry.
func (t *Task) entry() guest.ProcEntry {
	ppid, _ := t.parentU32(guest.TaskOffPID)
	return guest.ProcEntry{
		PID: int(t.hdr.pid), PPID: int(ppid), UID: t.hdr.uid, EUID: t.hdr.euid, GID: t.hdr.gid,
		ParentUID: t.ParentUID(), State: guest.TaskState(t.hdr.state), Comm: string(t.Comm()),
	}
}

// TaskFlags reads the flags field of a task found by pid (list walk).
func (in *Introspector) TaskFlags(pid int) (uint32, error) {
	cr3, err := in.walkRoot()
	if err != nil {
		return 0, err
	}
	gva, err := in.findTaskGVA(cr3, pid)
	if err != nil {
		return 0, err
	}
	return in.view.ReadU32GVA(cr3, gva+guest.TaskOffFlags)
}

// findTaskGVA locates a task_struct by pid via list walk.
func (in *Introspector) findTaskGVA(cr3 arch.GPA, pid int) (arch.GVA, error) {
	head := in.sym.InitTask
	cur := head
	for i := 0; i < maxTasks; i++ {
		got, err := in.view.ReadU32GVA(cr3, cur+guest.TaskOffPID)
		if err != nil {
			return 0, err
		}
		if int(got) == pid {
			return cur, nil
		}
		next, err := in.view.ReadU64GVA(cr3, cur+guest.TaskOffListNext)
		if err != nil {
			return 0, err
		}
		cur = arch.GVA(next)
		if cur == head {
			break
		}
	}
	return 0, fmt.Errorf("vmi: pid %d not in task list", pid)
}

// DeriveTaskFromRSP0 performs HyperTap's architectural state derivation: a
// kernel stack pointer (from TSS.RSP0, an architectural invariant) is masked
// to its thread_info, which points at the task_struct. Unlike ListProcesses
// this does NOT depend on the (attackable) task list — a DKOM-hidden task is
// still found, because the running thread's stack cannot lie.
func (in *Introspector) DeriveTaskFromRSP0(cr3 arch.GPA, rsp0 arch.GVA) (guest.ProcEntry, error) {
	gva, err := in.TaskStructGVAFromRSP0(cr3, rsp0)
	if err != nil {
		return guest.ProcEntry{}, err
	}
	return in.decodeTask(cr3, gva)
}

// TaskFromRSP0 is the narrow form of DeriveTaskFromRSP0 for per-event
// checks: the same architectural chain, then the task_struct header in one
// read, leaving the parent unread until the caller asks for it.
func (in *Introspector) TaskFromRSP0(cr3 arch.GPA, rsp0 arch.GVA) (Task, error) {
	t := Task{in: in, cr3: cr3}
	gva, err := in.TaskStructGVAFromRSP0(cr3, rsp0)
	if err != nil {
		return t, err
	}
	return t, in.readHeader(cr3, gva, &t.hdr)
}

// DeriveCurrentTask derives the task running on a vCPU right now from pure
// architectural state: TR → TSS.RSP0 → thread_info → task_struct.
func (in *Introspector) DeriveCurrentTask(vcpu int) (guest.ProcEntry, error) {
	regs := in.view.Regs(vcpu)
	if regs.CR3 == 0 || regs.TR == 0 {
		return guest.ProcEntry{}, fmt.Errorf("vmi: vcpu %d has no TR/CR3 yet", vcpu)
	}
	rsp0, err := in.view.ReadU64GVA(regs.CR3, regs.TR+arch.TSSOffRSP0)
	if err != nil {
		return guest.ProcEntry{}, fmt.Errorf("vmi: read TSS.RSP0: %w", err)
	}
	return in.DeriveTaskFromRSP0(regs.CR3, arch.GVA(rsp0))
}

// TaskStructGVAFromRSP0 returns the task_struct address for a kernel stack
// pointer: the first two links of the derivation, for auditors that need
// follow-up field reads.
func (in *Introspector) TaskStructGVAFromRSP0(cr3 arch.GPA, rsp0 arch.GVA) (arch.GVA, error) {
	tiBase := guest.ThreadInfoBase(rsp0)
	taskGVA, err := in.view.ReadU64GVA(cr3, tiBase+guest.ThreadInfoOffTask)
	if err != nil {
		return 0, fmt.Errorf("vmi: thread_info at %#x: %w", uint64(tiBase), err)
	}
	if taskGVA == 0 {
		return 0, fmt.Errorf("vmi: thread_info at %#x has nil task pointer", uint64(tiBase))
	}
	return arch.GVA(taskGVA), nil
}
