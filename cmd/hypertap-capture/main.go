// Command hypertap-capture works with the exit-stream capture format
// (internal/capture, .htcs): versioned recordings of the Event Forwarder's
// decoded exit stream that replay through the auditor plane to the live
// run's verdicts with no guest anywhere. Captures come from cmd/hypertap
// -trace, from incident bundles of campaigns run with Capture, and from
// record.
//
// Modes:
//
//	hypertap-capture record -o stream.htcs [-seed N -cap-vms N -vcpus N -events N -tick D]
//	    writes a deterministic synthetic capture (capture.Generate) — fuzz
//	    seeds, benchmark inputs, format examples.
//	hypertap-capture info [-json -chrome-trace FILE] <stream.htcs | bundle-dir>
//	    decodes the header and tallies the stream: records by kind, events
//	    and ticks per VM, events by type, top system calls, distinct address
//	    spaces, virtual extent. An incident-bundle directory (internal/flight)
//	    is summarized first and its capture.htcs, if it has one, tallied.
//	    -chrome-trace renders the input for ui.perfetto.dev: a bundle's
//	    flight rings and causal spans, or a stream's events, one track per VM.
//	hypertap-capture replay [-threshold D -strict -json -metrics FILE] stream.htcs
//	    re-drives the fleet auditor plane (per-VM GOSHD + fleetwatch) from
//	    the stream through experiment.ReplayStream and reports the verdicts;
//	    -metrics writes the replay's telemetry snapshot as JSON.
//	hypertap-capture replay -bundle dir [-threshold D -json -metrics FILE]
//	    same, from an incident bundle's capture.htcs via
//	    experiment.ReplayIncidentStream.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"hypertap/internal/capture"
	"hypertap/internal/core"
	"hypertap/internal/experiment"
	"hypertap/internal/flight"
	"hypertap/internal/guest"
	"hypertap/internal/telemetry"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "hypertap-capture:", err)
		os.Exit(1)
	}
}

func run() error {
	if len(os.Args) < 2 {
		return fmt.Errorf("usage: hypertap-capture <record|info|replay> [flags] [file]")
	}
	switch os.Args[1] {
	case "record":
		return runRecord(os.Args[2:])
	case "info":
		return runInfo(os.Args[2:])
	case "replay":
		return runReplay(os.Args[2:])
	default:
		return fmt.Errorf("unknown mode %q (want record, info or replay)", os.Args[1])
	}
}

func runRecord(args []string) error {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	var (
		out    = fs.String("o", "", "output file (required)")
		seed   = fs.Int64("seed", 1, "deterministic seed")
		vms    = fs.Int("cap-vms", 2, "VMs in the generated stream")
		vcpus  = fs.Int("vcpus", 2, "vCPUs per VM")
		events = fs.Int("events", 10000, "events to generate")
		tick   = fs.Duration("tick", time.Millisecond, "virtual tick between rounds")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" {
		return fmt.Errorf("record: -o is required")
	}
	data := capture.Generate(*seed, *vms, *vcpus, *events, *tick)
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s: %d events, %d VMs, %d bytes\n", *out, *events, *vms, len(data))
	return nil
}

// writeTo hands fill the file dst, or stdout for "-".
func writeTo(dst string, fill func(io.Writer) error) error {
	if dst == "-" {
		return fill(os.Stdout)
	}
	f, err := os.Create(dst)
	if err != nil {
		return err
	}
	if err := fill(f); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

func runInfo(args []string) error {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	var (
		jsonOut  = fs.Bool("json", false, "emit the tally as JSON")
		chromeTo = fs.String("chrome-trace", "", "write a Chrome trace-event JSON rendering (Perfetto-viewable) to this file (- for stdout)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("info: want exactly one capture file or bundle directory")
	}
	return info(os.Stdout, fs.Arg(0), *jsonOut, *chromeTo)
}

// infoReport is info's -json shape: the bundle's own summary when the input
// is a bundle, and the tally of the stream when there is one.
type infoReport struct {
	Bytes  int64       `json:"bytes"`
	Bundle *bundleInfo `json:"bundle,omitempty"`
	*capture.Summary
	// Error is the decode error that ended the stream early.
	Error string `json:"error,omitempty"`
}

type bundleInfo struct {
	Kind  string `json:"kind"`
	Exits int    `json:"exit_records"`
	Rings int    `json:"rings"`
	Spans int    `json:"spans"`
}

// info tallies a capture file or an incident bundle onto w and, with
// chromeTo set, writes its Chrome trace-event rendering. A stream that
// cannot be decoded to its end is tallied up to the damage and then
// reported as an error.
func info(w io.Writer, path string, jsonOut bool, chromeTo string) error {
	st, err := os.Stat(path)
	if err != nil {
		return err
	}
	var (
		rep    infoReport
		stream io.Reader
		chrome func(io.Writer) error
		events []core.Event
		names  = map[core.VMID]string{}
	)
	if st.IsDir() {
		b, err := flight.LoadBundle(path)
		if err != nil {
			return err
		}
		rep.Bundle = &bundleInfo{Kind: b.Meta.Kind, Rings: len(b.Exits), Spans: len(b.Spans)}
		for _, exits := range b.Exits {
			rep.Bundle.Exits += len(exits)
		}
		if len(b.Capture) > 0 {
			stream = bytes.NewReader(b.Capture)
			rep.Bytes = int64(len(b.Capture))
		}
		chrome = func(cw io.Writer) error { return flight.WriteChrome(cw, b) }
	} else {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		stream, rep.Bytes = f, st.Size()
		chrome = func(cw io.Writer) error { return flight.ChromeFromEvents(cw, events, names) }
	}
	var decodeErr error
	if stream != nil {
		var onEvent func(*core.Event)
		if chromeTo != "" && !st.IsDir() {
			onEvent = func(ev *core.Event) { events = append(events, *ev) }
		}
		if rep.Summary, decodeErr = capture.Summarize(stream, onEvent); rep.Summary == nil {
			return decodeErr
		}
		if decodeErr != nil {
			rep.Error = decodeErr.Error()
		}
		for _, vm := range rep.VMs {
			names[vm.ID] = vm.Name
		}
	}
	if jsonOut {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(&rep); err != nil {
			return err
		}
	} else {
		printInfo(w, path, &rep)
	}
	if decodeErr != nil {
		return fmt.Errorf("info: %s: stream ends early: %w", path, decodeErr)
	}
	if chromeTo == "" {
		return nil
	}
	return writeTo(chromeTo, chrome)
}

func printInfo(w io.Writer, path string, rep *infoReport) {
	name := path
	if b := rep.Bundle; b != nil {
		fmt.Fprintf(w, "bundle %s: kind %s, %d exit records across %d rings, %d spans\n",
			path, b.Kind, b.Exits, b.Rings, b.Spans)
		if rep.Summary == nil {
			return
		}
		name = "capture.htcs"
	}
	s := rep.Summary
	fmt.Fprintf(w, "%s: format v%d, %d bytes, tick %v\n", name, s.Version, rep.Bytes, s.Tick)
	if s.Host != "" {
		fmt.Fprintf(w, "host: %s\n", s.Host)
	}
	fmt.Fprintf(w, "records:")
	for _, k := range []string{"event", "tick", "barrier", "view", "counter", "end"} {
		if n := s.Records[k]; n > 0 {
			fmt.Fprintf(w, "  %s=%d", k, n)
		}
	}
	fmt.Fprintf(w, "\nvirtual extent: %v  clean end marker: %v\n", s.VirtualEnd, s.Ended)
	for _, vm := range s.VMs {
		fmt.Fprintf(w, "  %-12s vmid %-5d %d vCPUs  %8d events  %6d ticks\n", vm.Name, vm.ID, vm.VCPUs, vm.Events, vm.Ticks)
	}
	types := make([]string, 0, len(s.EventsByType))
	for ty := range s.EventsByType {
		types = append(types, ty)
	}
	sort.Strings(types)
	fmt.Fprintln(w, "events by type:")
	for _, ty := range types {
		fmt.Fprintf(w, "  %-16s %8d\n", ty, s.EventsByType[ty])
	}
	if len(s.Syscalls) > 0 {
		nrs := make([]uint32, 0, len(s.Syscalls))
		for nr := range s.Syscalls {
			nrs = append(nrs, nr)
		}
		sort.Slice(nrs, func(i, j int) bool {
			if a, b := s.Syscalls[nrs[i]], s.Syscalls[nrs[j]]; a != b {
				return a > b
			}
			return nrs[i] < nrs[j]
		})
		fmt.Fprintln(w, "top system calls:")
		for _, nr := range nrs[:min(len(nrs), 8)] {
			fmt.Fprintf(w, "  %-16v %8d\n", guest.Syscall(nr), s.Syscalls[nr])
		}
	}
	fmt.Fprintf(w, "distinct address spaces: %d\n", s.AddressSpaces)
	if rep.Bundle != nil {
		fmt.Fprintf(w, "replay the auditor plane from it: hypertap-capture replay -bundle %s\n", path)
	}
}

func runReplay(args []string) error {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	var (
		bundle    = fs.String("bundle", "", "replay an incident bundle's capture.htcs instead of a file")
		threshold = fs.Duration("threshold", 100*time.Millisecond, "GOSHD hang threshold")
		strict    = fs.Bool("strict", false, "fail on any divergence instead of counting (capture files)")
		jsonOut   = fs.Bool("json", false, "emit the report as JSON")
		metricsTo = fs.String("metrics", "", "write the replay's telemetry snapshot as JSON to this file (- for stdout)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := experiment.FleetConfig{Threshold: *threshold}
	if *metricsTo != "" {
		cfg.Telemetry = telemetry.NewRegistry()
	}
	var rep *experiment.StreamReplayReport
	if *bundle != "" {
		if fs.NArg() != 0 {
			return fmt.Errorf("replay: -bundle and a capture file are mutually exclusive")
		}
		if *strict {
			return fmt.Errorf("replay: -strict applies to capture files, not -bundle")
		}
		r, err := experiment.ReplayIncidentStream(cfg, *bundle)
		if err != nil {
			return err
		}
		rep = r
	} else {
		if fs.NArg() != 1 {
			return fmt.Errorf("replay: want exactly one capture file (or -bundle)")
		}
		data, err := os.ReadFile(fs.Arg(0))
		if err != nil {
			return err
		}
		if rep, err = experiment.ReplayStream(cfg, data, *strict); err != nil {
			return err
		}
	}
	if cfg.Telemetry != nil {
		if err := writeTo(*metricsTo, func(w io.Writer) error {
			snap := cfg.Telemetry.Snapshot()
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(&snap)
		}); err != nil {
			return err
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}
	fmt.Printf("replayed %d events across %d VMs  storms=%d  divergences=%d\n",
		rep.Events, len(rep.VMs), rep.Storms, rep.Divergences)
	for _, vm := range rep.VMs {
		fmt.Printf("  %-12s %8d events  %d goshd alarms\n", vm.Name, vm.Events, vm.Alarms)
	}
	return nil
}
