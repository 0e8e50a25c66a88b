// Package ped implements Privilege Escalation Detection: the paper's three
// Ninjas (§VII-C, §VIII-C).
//
//   - O-Ninja: the original in-guest passive scanner (a guest program that
//     polls /proc), faithful to the real Ninja tool's behaviour including
//     its vulnerabilities — transient attacks, /proc side channels,
//     spamming, and rootkit blinding.
//   - H-Ninja: the same policy moved to the hypervisor using traditional
//     VMI (passive polling of the guest task list). Immune to in-guest side
//     channels and, in blocking mode, to spamming — but still passive and
//     still built on OS invariants.
//   - HT-Ninja: the HyperTap auditor. Active monitoring (first context
//     switch of every process + every I/O-related system call) on
//     architectural invariants (TR → TSS → thread_info → task_struct).
//
// All three share one Policy so the comparison isolates the monitoring
// mechanism, as the paper intends ("we reuse the OS-level Ninja's checking
// rules").
package ped

import (
	"fmt"
	"time"

	"hypertap/internal/core"
	"hypertap/internal/guest"
	"hypertap/internal/vmi"
)

// Policy is Ninja's checking rule set: a root process whose parent is not
// from an authorized ("magic") user is privilege-escalated, unless the
// executable is white-listed (setuid programs).
type Policy struct {
	// Magic is the set of user IDs authorized to own root processes'
	// parents (the "magic group"). Root itself is usually a member.
	Magic map[uint32]bool
	// Whitelist exempts executables (by comm) from checking, as Ninja's
	// white list does for setuid binaries.
	Whitelist map[string]bool
}

// DefaultPolicy authorizes root as the only magic user and whitelists the
// standard system daemons of the miniOS guest.
func DefaultPolicy() Policy {
	return Policy{
		Magic: map[uint32]bool{0: true},
		Whitelist: map[string]bool{
			"init": true, "sshd": true, "ninja": true,
		},
	}
}

// violationInput is the minimal per-process evidence the rule needs.
type violationInput struct {
	PID       int
	Comm      string
	EUID      uint32
	ParentUID uint32
}

// violates applies the Ninja rule.
func (p *Policy) violates(in violationInput) bool {
	if in.EUID != 0 {
		return false
	}
	if p.Whitelist[in.Comm] {
		return false
	}
	return !p.Magic[in.ParentUID]
}

// ViolatesEntry applies the rule to a decoded task listing entry.
func (p *Policy) ViolatesEntry(e guest.ProcEntry) bool {
	return p.violates(violationInput{PID: e.PID, Comm: e.Comm, EUID: e.EUID, ParentUID: e.ParentUID})
}

// ViolatesTask applies the rule to a narrowly derived task, reading each
// input only when the rule reaches it: EUID, then comm, then the parent's uid
// for a root task that is not whitelisted. Its verdict equals ViolatesEntry
// on the task's full decode.
func (p *Policy) ViolatesTask(t *vmi.Task) bool {
	if t.EUID() != 0 || p.Whitelist[string(t.Comm())] {
		return false
	}
	return !p.Magic[t.ParentUID()]
}

// ViolatesStat applies the rule to a /proc stat record.
func (p *Policy) ViolatesStat(s guest.ProcStat) bool {
	return p.violates(violationInput{PID: s.PID, Comm: s.Comm, EUID: s.EUID, ParentUID: s.ParentUID})
}

// Detection records one flagged process.
type Detection struct {
	// PID and Comm identify the flagged process.
	PID  int
	Comm string
	// At is the virtual detection time.
	At time.Duration
	// By names the detector (o-ninja, h-ninja, ht-ninja).
	By string
	// Trigger describes what prompted the check (scan, first-switch,
	// io-syscall).
	Trigger string
	// Span is the causal span of the triggering event — zero for the passive
	// detectors (o-ninja, h-ninja), whose scans are not event-driven.
	Span core.SpanID
}

func (d Detection) String() string {
	return fmt.Sprintf("%s: privilege-escalated pid=%d comm=%q at %v (%s)", d.By, d.PID, d.Comm, d.At, d.Trigger)
}
