package hav

import (
	"strings"
	"testing"
	"testing/quick"

	"hypertap/internal/arch"
)

// newTestVCPU returns a vCPU whose handler records a copy of every exit: the
// *Exit a handler receives is borrowed for the call only.
func newTestVCPU(t *testing.T) (*VCPU, *Controls, *EPT, *[]Exit) {
	t.Helper()
	ctrls := &Controls{}
	ept := NewEPT(256)
	var seq uint64
	v := NewVCPU(0, ctrls, ept, &seq)
	exits := &[]Exit{}
	v.SetHandler(ExitHandlerFunc(func(e *Exit) { *exits = append(*exits, *e) }))
	return v, ctrls, ept, exits
}

func TestNewVCPUValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewVCPU with nil deps did not panic")
		}
	}()
	NewVCPU(0, nil, nil, nil)
}

func TestCR3WriteExitsOnlyWhenEnabled(t *testing.T) {
	v, ctrls, _, exits := newTestVCPU(t)

	v.WriteCR3(0x5000)
	if len(*exits) != 0 {
		t.Fatalf("CR3 write exited with CR3-load exiting disabled: %v", (*exits)[0])
	}
	if v.Regs.CR3 != 0x5000 {
		t.Fatalf("CR3 = %#x, want 0x5000", uint64(v.Regs.CR3))
	}

	ctrls.CR3LoadExiting = true
	v.WriteCR3(0x6000)
	if len(*exits) != 1 {
		t.Fatalf("got %d exits, want 1", len(*exits))
	}
	e := (*exits)[0]
	if e.Reason != ExitCRAccess {
		t.Fatalf("reason = %v, want CR_ACCESS", e.Reason)
	}
	if q := e.Qual; q.Register != 3 || q.Value != 0x6000 {
		t.Fatalf("qualification = %+v", e.Qual)
	}
	// Trap-before semantics: the snapshot still holds the old CR3.
	if e.Guest.CR3 != 0x5000 {
		t.Fatalf("snapshot CR3 = %#x, want pre-write 0x5000", uint64(e.Guest.CR3))
	}
	if v.Regs.CR3 != 0x6000 {
		t.Fatalf("CR3 after emulate = %#x, want 0x6000", uint64(v.Regs.CR3))
	}
}

func TestWRMSRAlwaysExits(t *testing.T) {
	v, _, _, exits := newTestVCPU(t)
	v.WriteMSR(arch.MSRSysenterEIP, 0x8000_1000)
	if len(*exits) != 1 || (*exits)[0].Reason != ExitWRMSR {
		t.Fatalf("exits = %v", *exits)
	}
	q := (*exits)[0].Qual
	if q.MSR != arch.MSRSysenterEIP || q.Value != 0x8000_1000 {
		t.Fatalf("qualification = %v", q)
	}
	if got := v.ReadMSR(arch.MSRSysenterEIP); got != 0x8000_1000 {
		t.Fatalf("MSR readback = %#x", got)
	}
}

func TestExceptionBitmapSelectsVectors(t *testing.T) {
	v, ctrls, _, exits := newTestVCPU(t)

	v.SoftwareInterrupt(arch.VectorLinuxSyscall)
	if len(*exits) != 0 {
		t.Fatal("unselected vector caused an exit")
	}

	ctrls.SetExceptionBit(arch.VectorLinuxSyscall, true)
	v.SoftwareInterrupt(arch.VectorLinuxSyscall)
	if len(*exits) != 1 {
		t.Fatalf("got %d exits, want 1", len(*exits))
	}
	q := (*exits)[0].Qual
	if q.ExcType != ExcSoftwareInt || q.Vector != arch.VectorLinuxSyscall {
		t.Fatalf("qualification = %v", q)
	}

	// Other vectors stay silent.
	v.SoftwareInterrupt(arch.VectorWindowsSyscall)
	if len(*exits) != 1 {
		t.Fatal("unselected Windows vector caused an exit")
	}

	// Deselect.
	ctrls.SetExceptionBit(arch.VectorLinuxSyscall, false)
	v.SoftwareInterrupt(arch.VectorLinuxSyscall)
	if len(*exits) != 1 {
		t.Fatal("deselected vector caused an exit")
	}
}

func TestExceptionBitmapAllVectors(t *testing.T) {
	var c Controls
	for vec := 0; vec < 256; vec++ {
		c.SetExceptionBit(uint8(vec), true)
		if !c.ExceptionBit(uint8(vec)) {
			t.Fatalf("vector %d not set", vec)
		}
	}
	for vec := 0; vec < 256; vec++ {
		c.SetExceptionBit(uint8(vec), false)
		if c.ExceptionBit(uint8(vec)) {
			t.Fatalf("vector %d still set", vec)
		}
	}
}

func TestEPTDefaultsToAll(t *testing.T) {
	e := NewEPT(16)
	for _, a := range []Access{AccessRead, AccessWrite, AccessExec} {
		if !e.Check(0x1000, a) {
			t.Fatalf("default page denies %v", a)
		}
	}
	if e.Perm(20*arch.PageSize) != PermNone {
		t.Fatal("page beyond memory is mapped")
	}
}

func TestEPTWriteProtect(t *testing.T) {
	v, _, ept, exits := newTestVCPU(t)
	if err := ept.SetPerm(0x3000, PermRead|PermExec); err != nil {
		t.Fatal(err)
	}

	if violated := v.CheckedAccess(0x3008, 0x8000_3008, AccessRead, 0); violated {
		t.Fatal("read of write-protected page violated")
	}
	if violated := v.CheckedAccess(0x3008, 0x8000_3008, AccessWrite, 42); !violated {
		t.Fatal("write to write-protected page did not violate")
	}
	if len(*exits) != 1 || (*exits)[0].Reason != ExitEPTViolation {
		t.Fatalf("exits = %v", *exits)
	}
	q := (*exits)[0].Qual
	if q.GPA != 0x3008 || q.GVA != 0x8000_3008 || q.Access != AccessWrite || q.Value != 42 {
		t.Fatalf("qualification = %+v", q)
	}
}

func TestEPTExecProtect(t *testing.T) {
	v, _, ept, exits := newTestVCPU(t)
	if err := ept.SetPerm(0x4000, PermRead|PermWrite); err != nil {
		t.Fatal(err)
	}
	if violated := v.CheckedAccess(0x4010, 0x8000_4010, AccessExec, 0); !violated {
		t.Fatal("exec of execute-protected page did not violate")
	}
	if (*exits)[0].Qual.Access != AccessExec {
		t.Fatal("qualification access mismatch")
	}
}

func TestEPTRestorePermRemovesEntry(t *testing.T) {
	e := NewEPT(16)
	if err := e.SetPerm(0x1000, PermRead); err != nil {
		t.Fatal(err)
	}
	if e.RestrictedPages() != 1 {
		t.Fatalf("RestrictedPages = %d, want 1", e.RestrictedPages())
	}
	if err := e.SetPerm(0x1000, PermAll); err != nil {
		t.Fatal(err)
	}
	if e.RestrictedPages() != 0 {
		t.Fatalf("RestrictedPages = %d, want 0", e.RestrictedPages())
	}
}

func TestEPTSetPermOutOfRange(t *testing.T) {
	e := NewEPT(4)
	if err := e.SetPerm(64*arch.PageSize, PermRead); err == nil {
		t.Fatal("SetPerm beyond memory succeeded")
	}
}

func TestEPTReset(t *testing.T) {
	e := NewEPT(16)
	_ = e.SetPerm(0, PermNone)
	e.Reset()
	if e.RestrictedPages() != 0 || !e.Check(0, AccessWrite) {
		t.Fatal("Reset did not clear restrictions")
	}
}

func TestIOAlwaysExits(t *testing.T) {
	v, _, _, exits := newTestVCPU(t)
	v.IO(0x3F8, true, 'A')
	if len(*exits) != 1 || (*exits)[0].Reason != ExitIOInstruction {
		t.Fatalf("exits = %v", *exits)
	}
	q := (*exits)[0].Qual
	if q.Port != 0x3F8 || !q.Write || q.Value != 'A' {
		t.Fatalf("qualification = %v", q)
	}
}

func TestExternalInterruptWakesHaltedVCPU(t *testing.T) {
	v, _, _, exits := newTestVCPU(t)
	v.Halt()
	if !v.Halted() {
		t.Fatal("vCPU not halted after HLT")
	}
	v.ExternalInterrupt(arch.VectorTimer)
	if v.Halted() {
		t.Fatal("vCPU still halted after external interrupt")
	}
	if len(*exits) != 2 {
		t.Fatalf("got %d exits, want HLT + EXTERNAL_INT", len(*exits))
	}
	if (*exits)[0].Reason != ExitHLT || (*exits)[1].Reason != ExitExternalInterrupt {
		t.Fatalf("exit order = %v, %v", (*exits)[0].Reason, (*exits)[1].Reason)
	}
}

func TestAPICAccessExit(t *testing.T) {
	v, _, _, exits := newTestVCPU(t)
	v.APICAccess(0xB0, true)
	if len(*exits) != 1 || (*exits)[0].Reason != ExitAPICAccess {
		t.Fatalf("exits = %v", *exits)
	}
}

func TestExitSequenceIsSharedAndMonotonic(t *testing.T) {
	ctrls := &Controls{CR3LoadExiting: true}
	ept := NewEPT(64)
	var seq uint64
	var seen []uint64
	h := ExitHandlerFunc(func(e *Exit) { seen = append(seen, e.Sequence) })
	v0 := NewVCPU(0, ctrls, ept, &seq)
	v1 := NewVCPU(1, ctrls, ept, &seq)
	v0.SetHandler(h)
	v1.SetHandler(h)

	v0.WriteCR3(0x1000)
	v1.WriteCR3(0x2000)
	v0.IO(1, false, 0)
	for i, s := range seen {
		if s != uint64(i+1) {
			t.Fatalf("sequence = %v, want 1..n", seen)
		}
	}
}

func TestExitTally(t *testing.T) {
	v, ctrls, _, _ := newTestVCPU(t)
	ctrls.CR3LoadExiting = true
	v.WriteCR3(1)
	v.WriteCR3(2)
	v.IO(1, false, 0)
	if got := v.ExitCount(ExitCRAccess); got != 2 {
		t.Fatalf("CR_ACCESS count = %d, want 2", got)
	}
	if got := v.ExitCount(ExitIOInstruction); got != 1 {
		t.Fatalf("IO count = %d, want 1", got)
	}
	if got := v.TotalExits(); got != 3 {
		t.Fatalf("TotalExits = %d, want 3", got)
	}
	if got := v.ExitCount(ExitReason(200)); got != 0 {
		t.Fatalf("unknown reason count = %d, want 0", got)
	}
}

func TestModeTransitions(t *testing.T) {
	v, ctrls, _, _ := newTestVCPU(t)
	ctrls.CR3LoadExiting = true
	sawHostMode := false
	v.SetHandler(ExitHandlerFunc(func(e *Exit) {
		if !v.InGuest() {
			sawHostMode = true
		}
	}))
	if !v.InGuest() {
		t.Fatal("vCPU not in guest mode initially")
	}
	v.WriteCR3(0x1000)
	if !sawHostMode {
		t.Fatal("handler did not run in host mode")
	}
	if !v.InGuest() {
		t.Fatal("vCPU not back in guest mode after VM entry")
	}
}

func TestStringers(t *testing.T) {
	for _, r := range AllExitReasons() {
		if r.String() == "" {
			t.Fatalf("reason %d has empty name", r)
		}
	}
	if ExitReason(99).String() == "" {
		t.Fatal("unknown reason empty")
	}
	exits := []Exit{
		{Reason: ExitCRAccess, Qual: Qualification{Register: 3, Value: 1}},
		{Reason: ExitEPTViolation, Qual: Qualification{GPA: 1, GVA: 2, Access: AccessWrite}},
		{Reason: ExitException, Qual: Qualification{ExcType: ExcSoftwareInt, Vector: 0x80}},
		{Reason: ExitWRMSR, Qual: Qualification{MSR: arch.MSRSysenterEIP, Value: 1}},
		{Reason: ExitIOInstruction, Qual: Qualification{Port: 1, Write: true, Value: 2}},
		{Reason: ExitIOInstruction, Qual: Qualification{Port: 1, Write: false, Value: 2}},
		{Reason: ExitExternalInterrupt, Qual: Qualification{Vector: 0x20}},
		{Reason: ExitAPICAccess, Qual: Qualification{Offset: 0xB0, Write: true}},
		{Reason: ExitAPICAccess, Qual: Qualification{Offset: 0xB0}},
		{Reason: ExitHLT},
		{Reason: ExitReason(99)},
	}
	for i := range exits {
		if s := exits[i].String(); s == "" || strings.HasSuffix(s, ": ") {
			t.Fatalf("exit %v has empty qualification text %q", exits[i].Reason, s)
		}
	}
	if (AccessRead).String() != "read" || Access(9).String() == "" {
		t.Fatal("Access.String mismatch")
	}
	if (PermRead | PermExec).String() != "r-x" {
		t.Fatalf("Perm.String = %q", (PermRead | PermExec).String())
	}
	for _, e := range []ExceptionType{ExcSoftwareInt, ExcPageFault, ExcGeneralProtection, ExceptionType(9)} {
		if e.String() == "" {
			t.Fatal("ExceptionType empty string")
		}
	}
	v, _, _, _ := newTestVCPU(t)
	if v.String() == "" {
		t.Fatal("VCPU.String empty")
	}
	ex := &Exit{VCPU: 0, Reason: ExitHLT, Sequence: 1}
	if ex.String() == "" {
		t.Fatal("Exit.String empty")
	}
}

// Property: Perm.Allows agrees with the bit definition for all combinations.
func TestPropertyPermAllows(t *testing.T) {
	f := func(bits uint8) bool {
		p := Perm(bits & 7)
		return p.Allows(AccessRead) == (p&PermRead != 0) &&
			p.Allows(AccessWrite) == (p&PermWrite != 0) &&
			p.Allows(AccessExec) == (p&PermExec != 0) &&
			!p.Allows(Access(0))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: an EPT check never raises a violation for unrestricted pages and
// always raises one for fully protected pages.
func TestPropertyEPTViolations(t *testing.T) {
	f := func(pageBits uint8, accessBits uint8) bool {
		ept := NewEPT(256)
		page := arch.GPA(pageBits) * arch.PageSize
		access := Access(accessBits%3 + 1)
		if !ept.Check(page, access) {
			return false
		}
		if err := ept.SetPerm(page, PermNone); err != nil {
			return false
		}
		return !ept.Check(page, access)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
