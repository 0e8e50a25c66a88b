package capture

import (
	"bytes"
	"math/rand"
	"strconv"
	"time"

	"hypertap/internal/arch"
	"hypertap/internal/core"
	"hypertap/internal/hav"
)

// Generate builds a deterministic synthetic capture: a pure function of the
// seed, used to seed the fuzz corpus and to synthesize the large replay
// benchmark stream without checking megabytes of data into the repository.
//
// The stream cycles through every event type — including the routing table's
// sentinel range ≥ 32 and zero-Span untraced events — in rounds of roughly
// eventsPerRound events per VM followed by per-VM ticks and one barrier, the
// shape the live scheduler produces.
func Generate(seed int64, vms, vcpus, events int, tick time.Duration) []byte {
	return GenerateHosted(seed, vms, vcpus, events, tick, "")
}

// GenerateHosted is Generate with the recording host named: a non-empty
// hostName selects the v2 header.
func GenerateHosted(seed int64, vms, vcpus, events int, tick time.Duration, hostName string) []byte {
	if vms < 1 {
		vms = 1
	}
	if vcpus < 1 {
		vcpus = 1
	}
	rng := rand.New(rand.NewSource(seed))
	var buf bytes.Buffer
	hdr := Header{Host: hostName, Tick: tick}
	for i := 0; i < vms; i++ {
		hdr.VMs = append(hdr.VMs, VMHeader{Name: vmName(i), VCPUs: vcpus})
	}
	rec, err := NewRecorder(&buf, hdr)
	if err != nil {
		panic("capture: Generate header rejected: " + err.Error())
	}
	// Sentinel types land in the routing table's shared ≥32 slot; exercising
	// them proves the replay path and the codec handle unknown decodes.
	types := append(core.AllEventTypes(), core.EventType(32), core.EventType(200))
	const eventsPerRound = 16
	seqs := make([]uint64, vms)
	now := time.Duration(0)
	written := 0
	for written < events {
		now += tick
		for vm := 0; vm < vms && written < events; vm++ {
			n := eventsPerRound
			if left := events - written; n > left {
				n = left
			}
			for i := 0; i < n; i++ {
				var ev core.Event
				ev.Type = types[rng.Intn(len(types))]
				ev.VM = core.VMID(vm)
				ev.VCPU = rng.Intn(vcpus)
				seqs[vm]++
				ev.Seq = seqs[vm]
				// Every eighth event is untraced (zero Span), like events
				// published outside a forwarder.
				if ev.Seq%8 != 0 {
					ev.Span = core.MintSpan(ev.VM, ev.Seq, uint8(ev.VCPU))
				}
				ev.Time = now
				ev.ExitReason = hav.ExitReason(1 + rng.Intn(hav.NumExitReasons))
				fillRegs(&ev.Regs, rng)
				fillPayload(&ev, rng)
				rec.TapEvent(&ev)
				written++
			}
			rec.TapTick(core.VMID(vm), now)
		}
		rec.TapBarrier(now)
	}
	if err := rec.Finish(); err != nil {
		panic("capture: Generate write failed: " + err.Error())
	}
	return buf.Bytes()
}

// vmName names generated VMs.
func vmName(i int) string { return "genvm-" + strconv.Itoa(i) }

// fillRegs randomizes a register file.
func fillRegs(regs *arch.RegisterFile, rng *rand.Rand) {
	regs.RIP = arch.GVA(rng.Uint64())
	regs.RSP = arch.GVA(rng.Uint64())
	regs.CR3 = arch.GPA(rng.Uint64())
	regs.TR = arch.GVA(rng.Uint64())
	regs.CPL = arch.Ring(rng.Intn(4))
	for i := range regs.GPRs {
		regs.GPRs[i] = rng.Uint64()
	}
}

// fillPayload randomizes the type-specific fields.
func fillPayload(ev *core.Event, rng *rand.Rand) {
	switch ev.Type {
	case core.EvProcessSwitch:
		ev.PDBA = arch.GPA(rng.Uint64())
	case core.EvThreadSwitch:
		ev.RSP0 = arch.GVA(rng.Uint64())
		ev.GPA = arch.GPA(rng.Uint64())
	case core.EvSyscall:
		ev.SyscallNr = rng.Uint32()
		for i := range ev.SyscallArgs {
			ev.SyscallArgs[i] = rng.Uint64()
		}
	case core.EvIOPort:
		ev.Port = uint16(rng.Uint32())
		ev.IsWrite = rng.Intn(2) == 1
		ev.IOValue = rng.Uint32()
	case core.EvMMIO, core.EvMemAccess:
		ev.GPA = arch.GPA(rng.Uint64())
		ev.GVA = arch.GVA(rng.Uint64())
		ev.IsWrite = rng.Intn(2) == 1
	case core.EvInterrupt, core.EvRawExit:
		ev.Vector = uint8(rng.Uint32())
	case core.EvAPICAccess:
		ev.IsWrite = rng.Intn(2) == 1
	case core.EvHalt:
	case core.EvMSRWrite:
		ev.MSR = arch.MSR(rng.Uint32())
		ev.MSRValue = rng.Uint64()
	case core.EvTSSRelocated:
		ev.GVA = arch.GVA(rng.Uint64())
	default:
		ev.PDBA = arch.GPA(rng.Uint64())
		ev.RSP0 = arch.GVA(rng.Uint64())
		ev.SyscallNr = rng.Uint32()
		for i := range ev.SyscallArgs {
			ev.SyscallArgs[i] = rng.Uint64()
		}
		ev.Port = uint16(rng.Uint32())
		ev.IsWrite = rng.Intn(2) == 1
		ev.IOValue = rng.Uint32()
		ev.Vector = uint8(rng.Uint32())
		ev.MSR = arch.MSR(rng.Uint32())
		ev.MSRValue = rng.Uint64()
		ev.GPA = arch.GPA(rng.Uint64())
		ev.GVA = arch.GVA(rng.Uint64())
	}
}
