package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"time"

	"hypertap/internal/core"
	"hypertap/internal/flight"
	"hypertap/internal/hv"
)

// sizes fixes how much work a workload's rounds do. fullSize is the
// benchmark; the tests use tinySize.
type sizes struct {
	// fig7Scale is the workload.Suite scale of the fig7-syscall items.
	fig7Scale int
	// fleetVMs is the VM count of the fleet host; fleetRound is the
	// virtual time one fleet-mixed round advances it.
	fleetVMs   int
	fleetRound time.Duration
	// replayRecord is the virtual time replay-fleet records; replayPasses
	// is the number of replays of the capture per round.
	replayRecord time.Duration
	replayPasses int
	// campaignSampleEvery selects every n-th fault site for one
	// goshd-campaign round.
	campaignSampleEvery int
	// golden names the size's golden digests ("" for the benchmark's own).
	golden string
}

var fullSize = sizes{
	fig7Scale:           10,
	fleetVMs:            8,
	fleetRound:          400 * time.Millisecond,
	replayRecord:        2 * time.Second,
	replayPasses:        3,
	campaignSampleEvery: 64,
}

var tinySize = sizes{
	fig7Scale:           1,
	fleetVMs:            2,
	fleetRound:          100 * time.Millisecond,
	replayRecord:        40 * time.Millisecond,
	replayPasses:        1,
	campaignSampleEvery: 187,
	golden:              "tiny",
}

// workloadDef is one benchmark workload.
type workloadDef struct {
	name string
	// setup builds the workload at seed. hk is non-nil for a traced run.
	// It returns the instance, the one-time set-up time (reported as
	// setup_s unless rounds construct their own machines), and the VM
	// builds it made (for hv.new_ms and hv.boot_ms).
	setup func(sz sizes, seed int64, hk *hooks) (inst instance, setup time.Duration, builds tally, err error)
}

var workloads = []*workloadDef{fig7Def, fleetDef, replayDef, campaignDef}

func findWorkload(name string) (*workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// crcSink is the capture recorder's byte-counting CRC-32C sink.
type crcSink struct {
	crc uint32
	n   int64
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func (s *crcSink) Write(p []byte) (int, error) {
	s.crc = crc32.Update(s.crc, castagnoli, p)
	s.n += int64(len(p))
	return len(p), nil
}

// canon renders a digest as canonical JSON (struct fields in order, map
// keys sorted), the form rounds and goldens compare in.
func canon(d any) string {
	b, err := json.Marshal(d)
	if err != nil {
		panic(fmt.Sprintf("digest does not marshal: %v", err))
	}
	return string(b)
}

// flightCRC is the CRC-32C of the VMs' flight exit rings in the flight
// codec's byte form. With fresh set, VM i's ring is cut to the records of
// its last fresh[i] published events: a ring that has not wrapped still
// holds the events its VM published while booting, before the auditors
// (and a capture) were attached.
func flightCRC(em *core.Multiplexer, vms []core.VMID, fresh []uint64) (uint32, error) {
	var buf bytes.Buffer
	for i, vm := range vms {
		ring := em.FlightExits(vm)
		if fresh != nil && uint64(len(ring)) > fresh[i] {
			ring = ring[uint64(len(ring))-fresh[i]:]
		}
		if err := flight.WriteExits(&buf, ring); err != nil {
			return 0, err
		}
	}
	return crc32.Checksum(buf.Bytes(), castagnoli), nil
}

// subscriptions renders the EM's per-auditor delivery accounting.
func subscriptions(em *core.Multiplexer) []string {
	var out []string
	for _, s := range em.Stats() {
		out = append(out, fmt.Sprintf("%s %v %v delivered=%d queued=%d dropped=%d",
			s.Auditor, s.Mode, s.Scope, s.Delivered, s.Queued, s.Dropped))
	}
	return out
}

// untraced runs fn with span timing paused, for epilogue reads that belong
// to no layer's measured work.
func untraced(hk *hooks, fn func() error) error {
	if hk == nil {
		return fn()
	}
	tr := hk.tr
	hk.tr = nil
	defer func() { hk.tr = tr }()
	return fn()
}

// runUntil is hv.Machine.RunUntil decomposed into the public steps it is
// made of — StepTick, the exit tap's TapBarrier and the EM's Dispatch — each
// timed as its own span. tap must be the tap installed on m.
func runUntil(m *hv.Machine, max time.Duration, cond func() bool, tr *tracer, step, dispatch spanKind, tap core.ExitStreamTap) {
	deadline := m.Clock().Now() + max
	for m.Clock().Now() < deadline {
		if cond != nil && cond() {
			return
		}
		tr.begin(step)
		m.StepTick()
		tr.end()
		if tap != nil {
			tr.begin(spBarrier)
			tap.TapBarrier(m.Clock().Now())
			tr.end()
		}
		tr.begin(dispatch)
		m.EM().Dispatch(0)
		tr.end()
	}
}

// timeBuild runs fn and adds its duration to *ns.
func timeBuild(ns *int64, fn func() error) error {
	t0 := time.Now()
	err := fn()
	*ns += int64(time.Since(t0))
	return err
}
