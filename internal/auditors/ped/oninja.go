package ped

//hypertap:allow-file eventsonly O-Ninja is the paper's in-guest baseline agent, not an out-of-VM auditor: it is *built from* guest program steps so its scans run inside the VM, subject to hijacked syscalls and scheduling side channels

import (
	"sync"
	"time"

	"hypertap/internal/guest"
)

// ONinja is the original in-guest Ninja: a user process that periodically
// lists /proc and re-stats each pid, flagging violations. It is faithful to
// the real tool's weaknesses:
//
//   - passive: it only sees state that persists across its polling interval
//     (transient attacks escape);
//   - in-guest: its own scheduling is visible through /proc (the side
//     channel of Table III) and its input comes through the hijackable
//     syscall layer (rootkits blind it);
//   - linear scan: per-process checking cost lets spamming push the
//     escalated process past the scan horizon (Fig. 6, bottom).
type ONinja struct {
	// Policy is the shared rule set.
	Policy Policy
	// Interval is the sleep between scans (Ninja's -t; 1s default in the
	// real tool, 0 = continuous).
	Interval time.Duration
	// PerEntryCost is the user-time spent checking one process (directory
	// stat + rule evaluation). Default 150µs.
	PerEntryCost time.Duration
	// Kill requests termination of flagged processes (Ninja's optional
	// enforcement).
	Kill bool

	mu         sync.Mutex
	detections []Detection
	scans      uint64
}

// Detections snapshots the flagged processes.
func (o *ONinja) Detections() []Detection {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make([]Detection, len(o.detections))
	copy(out, o.detections)
	return out
}

// Detected reports whether any violation was flagged.
func (o *ONinja) Detected() bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.detections) > 0
}

// Scans returns the number of completed scan cycles.
func (o *ONinja) Scans() uint64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.scans
}

func (o *ONinja) record(d Detection) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.detections = append(o.detections, d)
}

// Program returns the guest program implementing the scanner. Spawn it as a
// root-owned process named "ninja".
func (o *ONinja) Program() guest.Program {
	if o.PerEntryCost == 0 {
		o.PerEntryCost = 150 * time.Microsecond
	}
	return &oNinjaProgram{o: o}
}

// Spec returns a ready-to-spawn process specification.
func (o *ONinja) Spec() *guest.ProcSpec {
	return &guest.ProcSpec{Comm: "ninja", UID: 0, Program: o.Program()}
}

// oNinjaProgram is the in-guest scanner state machine:
//
//	list /proc -> for each pid: burn PerEntryCost, stat pid, evaluate
//	           -> sleep Interval -> repeat
type oNinjaProgram struct {
	o    *ONinja
	mode oNinjaMode
	pids []int
	idx  int
	// killPID holds a flagged pid awaiting a kill step.
	killPID int
}

type oNinjaMode uint8

const (
	modeList oNinjaMode = iota
	modeConsumeList
	modeStat
	modeEval
	modeKill
	modeSleepDone
)

var _ guest.Program = (*oNinjaProgram)(nil)

// Next implements guest.Program.
func (p *oNinjaProgram) Next(ctx *guest.ProgContext, st *guest.Step) {
	for {
		switch p.mode {
		case modeList:
			p.mode = modeConsumeList
			st.SetSyscall(guest.SysListProcs)
			return

		case modeConsumeList:
			p.pids = p.pids[:0]
			if ctx.LastResult != nil {
				if entries, ok := ctx.LastResult.Data.([]guest.ProcEntry); ok {
					for _, e := range entries {
						p.pids = append(p.pids, e.PID)
					}
				}
			}
			p.idx = 0
			p.mode = modeStat
			// Fixed directory-read cost before the per-pid loop.
			st.SetCompute(p.o.PerEntryCost)
			return

		case modeStat:
			if p.idx >= len(p.pids) {
				p.o.mu.Lock()
				p.o.scans++
				p.o.mu.Unlock()
				p.mode = modeSleepDone
				if p.o.Interval > 0 {
					st.SetSleep(p.o.Interval)
					return
				}
				st.SetSyscall(guest.SysYieldCPU)
				return
			}
			pid := p.pids[p.idx]
			p.idx++
			p.mode = modeEval
			st.SetSyscall(guest.SysProcStat, uint64(pid))
			return

		case modeEval:
			p.mode = modeStat
			if ctx.LastResult != nil && ctx.LastResult.Err == 0 {
				if ps, ok := ctx.LastResult.Data.(guest.ProcStat); ok {
					if p.o.Policy.ViolatesStat(ps) {
						p.o.record(Detection{
							PID: ps.PID, Comm: ps.Comm, At: ctx.Now,
							By: "o-ninja", Trigger: "scan",
						})
						if p.o.Kill {
							p.killPID = ps.PID
							p.mode = modeKill
						}
					}
				}
			}
			// The per-entry checking cost (user time).
			st.SetCompute(p.o.PerEntryCost)
			return

		case modeKill:
			p.mode = modeStat
			pid := p.killPID
			p.killPID = 0
			st.SetSyscall(guest.SysKill, uint64(pid))
			return

		default: // modeSleepDone
			p.mode = modeList
		}
	}
}
