package capture

import (
	"errors"
	"io"
	"time"

	"hypertap/internal/core"
)

// Summary is a one-pass tally of a capture stream: what hypertap-capture
// info prints, and the offline triage view of a recorded run (the Ether
// lineage of §II — the exit stream studied after the fact).
type Summary struct {
	Version int           `json:"version"`
	Host    string        `json:"host,omitempty"`
	Tick    time.Duration `json:"tick_ns"`
	// VMs follows the header's table order.
	VMs     []VMSummary      `json:"vms"`
	Records map[string]int64 `json:"records"`
	// EventsByType counts event records per event type name.
	EventsByType map[string]int64 `json:"events_by_type"`
	// Syscalls counts syscall events per system call number.
	Syscalls map[uint32]int64 `json:"syscalls,omitempty"`
	// AddressSpaces is the number of distinct PDBAs the process-switch
	// events named, across all VMs.
	AddressSpaces int           `json:"address_spaces"`
	VirtualEnd    time.Duration `json:"virtual_end_ns"`
	// Ended reports that the stream carried its end marker.
	Ended bool `json:"ended"`
}

// VMSummary is one header VM's share of a Summary.
type VMSummary struct {
	ID     core.VMID `json:"id"`
	Name   string    `json:"name"`
	VCPUs  int       `json:"vcpus"`
	Events int64     `json:"events"`
	Ticks  int64     `json:"ticks"`
}

// Summarize decodes a whole capture stream and tallies it. Per-VM counts
// are indexed by VMID, which is the header slot; the Reader rejects any
// record naming a VM outside the table. onEvent, when non-nil, sees every
// decoded event in stream order; the event is only valid for the duration
// of the call.
//
// A stream that cannot be decoded to its end returns the tally of every
// record before the damage together with the decode error: a corrupt or
// truncated record is reported, never mistaken for a clean end. Epilogue
// records after the end marker are tallied too.
func Summarize(r io.Reader, onEvent func(*core.Event)) (*Summary, error) {
	rd, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	hdr := rd.Header()
	s := &Summary{
		Version:      rd.Version(),
		Host:         hdr.Host,
		Tick:         hdr.Tick,
		Records:      map[string]int64{},
		EventsByType: map[string]int64{},
		Syscalls:     map[uint32]int64{},
	}
	for i, vm := range hdr.VMs {
		s.VMs = append(s.VMs, VMSummary{ID: core.VMID(i), Name: vm.Name, VCPUs: vm.VCPUs})
	}
	spaces := map[uint64]bool{}
	var rec Record
	for {
		if err := rd.Next(&rec); err != nil {
			s.AddressSpaces = len(spaces)
			if errors.Is(err, io.EOF) {
				return s, nil
			}
			return s, err
		}
		s.Records[KindName(rec.Kind)]++
		switch rec.Kind {
		case recEvent:
			ev := &rec.Event
			s.VMs[ev.VM].Events++
			s.EventsByType[ev.Type.String()]++
			switch ev.Type {
			case core.EvSyscall:
				s.Syscalls[ev.SyscallNr]++
			case core.EvProcessSwitch:
				spaces[uint64(ev.PDBA)] = true
			}
			s.VirtualEnd = max(s.VirtualEnd, ev.Time)
			if onEvent != nil {
				onEvent(ev)
			}
		case recTick:
			s.VMs[rec.VM].Ticks++
			s.VirtualEnd = max(s.VirtualEnd, rec.Now)
		case recEnd:
			s.Ended = true
		}
	}
}
