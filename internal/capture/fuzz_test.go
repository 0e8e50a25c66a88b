package capture

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"testing/iotest"
	"time"

	"hypertap/internal/core"
	"hypertap/internal/guest"
)

// corpusDir holds the checked-in seed corpus: deterministic Generate output
// plus any minimized crashers promoted from fuzzing runs. Every file replays
// through the full auditing plane in TestCorpusRegression, so a crasher
// checked in here is a permanent regression test.
const corpusDir = "testdata/corpus"

// fuzzMaxInput caps fuzz inputs: a corrupted length field must not make the
// harness itself allocate without bound.
const fuzzMaxInput = 1 << 20

// fuzzReplayOnce replays data through the full auditing plane with hostile-
// input caps and returns a deterministic summary of everything observable:
// rejection/error text, verdict counts, divergences and flight-ring bytes.
// Inputs that fail to parse return the error text — rejection must be as
// deterministic as acceptance.
func fuzzReplayOnce(data []byte) []byte {
	var sum bytes.Buffer
	rp, err := NewReplay(bytes.NewReader(data), ReplayConfig{
		MaxVMs:   8,
		MaxVCPUs: 16,
		MaxTick:  time.Second,
		Flight:   core.NewFlightTable(8, 64, 64),
	})
	if err != nil {
		fmt.Fprintf(&sum, "reject: %v", err)
		return sum.Bytes()
	}
	// Identical wiring to the equivalence gates: whatever a live deployment
	// runs against the EM is what the fuzzer hammers. The zero Symbols table
	// makes every introspection walk take its error path — also worth
	// fuzzing. Construction can only fail on duplicate registration, which a
	// fresh EM rules out, so a failure here is itself a finding (panic).
	// The first header VM's wire ID anchors the wiring — a v2 (cluster)
	// stream's IDs are sparse, so 0 may not exist.
	vm0 := rp.Header().VMs[0].ID
	auds, err := buildSoloAuditors(rp.EM(), vm0, rp.Clock(vm0), rp.Header().VMs[0].VCPUs,
		rp.View(vm0), rp.Counter(vm0), guest.Symbols{})
	if err != nil {
		panic("capture: fuzz auditor wiring failed: " + err.Error())
	}
	auds.gos.Start()
	runErr := rp.Run()
	// Replay accepts ⇒ reader accepts: a Run that ends cleanly must not
	// have skipped over damage a plain decode pass reports.
	if runErr == nil {
		if err := readThrough(data); err != nil {
			panic("capture: replay accepted a stream the reader rejects: " + err.Error())
		}
	}
	fmt.Fprintf(&sum, "run: %v\n", runErr)
	fmt.Fprintf(&sum, "div: %d\n", rp.Divergences())
	fmt.Fprintf(&sum, "events: %d alarms: %d dets: %d checks: %d storms: %d total: %d\n",
		len(auds.col.events()), len(auds.gos.Alarms()), len(auds.nin.Detections()),
		auds.nin.Checks(), len(auds.fw.Storms()), auds.fw.Total())
	// The epilogue reads auditors perform after a clean replay must also be
	// panic-free and deterministic on hostile streams.
	if report, err := auds.hr.CrossCheck(); err == nil {
		fmt.Fprintf(&sum, "crosscheck: %d/%d/%d hidden %d\n",
			report.ArchAddressSpaces, report.ArchThreads, report.ViewTasks, len(report.Hidden))
	} else {
		fmt.Fprintf(&sum, "crosscheck err: %v\n", err)
	}
	for _, hvm := range rp.Header().VMs {
		for _, rec := range rp.EM().FlightExits(hvm.ID) {
			fmt.Fprintf(&sum, "exit %d %d %d %d %d %d\n",
				rec.Span, rec.TimeNS, rec.Digest, rec.Sync, rec.Queued, rec.Dropped)
		}
	}
	return sum.Bytes()
}

// readThrough decodes data record by record up to the end record or a
// clean io.EOF, returning the first error.
func readThrough(data []byte) error {
	rd, err := NewReader(bytes.NewReader(data))
	if err != nil {
		return err
	}
	var rec Record
	for {
		if err := rd.Next(&rec); err == io.EOF {
			return nil
		} else if err != nil {
			return err
		}
		if rec.Kind == recEnd {
			return nil
		}
	}
}

// FuzzReplay feeds mutated captures — truncations, reorderings, corrupted
// Seq/VM/Span fields, register bit-flips, illegal ExitReason and payload
// combinations, hostile headers — through the full replay plane and hunts
// three classes of bug: panics anywhere in the auditor plane, parse
// acceptance of malformed streams (a clean Run over bytes a plain Reader
// pass rejects), and determinism violations (the same bytes replaying to
// different verdicts).
func FuzzReplay(f *testing.F) {
	f.Add(Generate(1, 1, 2, 64, time.Millisecond))
	f.Add(Generate(7, 4, 2, 256, time.Millisecond))
	f.Add(Generate(42, 2, 1, 32, 5*time.Millisecond))
	f.Add(Generate(9, 8, 4, 128, 100*time.Microsecond))
	f.Add(GenerateHosted(11, 2, 2, 64, time.Millisecond, "fuzzhost", 4))
	f.Add(magic[:])
	f.Add([]byte{})
	if ents, err := os.ReadDir(corpusDir); err == nil {
		for _, ent := range ents {
			if ent.IsDir() || filepath.Ext(ent.Name()) != ".bin" {
				continue
			}
			data, err := os.ReadFile(filepath.Join(corpusDir, ent.Name()))
			if err != nil {
				f.Fatal(err)
			}
			f.Add(data)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > fuzzMaxInput {
			t.Skip("oversized input")
		}
		first := fuzzReplayOnce(data)
		second := fuzzReplayOnce(data)
		if !bytes.Equal(first, second) {
			t.Fatalf("determinism violation: same bytes, different outcomes\nfirst:\n%s\nsecond:\n%s", first, second)
		}
	})
}

// decodeTrace is one decoder's account of a stream: every event record it
// decoded, the kind of every other record, and the error that ended the
// stream (nil at a clean EOF).
type decodeTrace struct {
	events []core.Event
	kinds  []byte
	err    error
}

// traceNext decodes a stream record by record with Reader.Next.
func traceNext(r io.Reader) decodeTrace {
	var tr decodeTrace
	rd, err := NewReader(r)
	if err != nil {
		panic("capture: fuzz header rejected: " + err.Error())
	}
	var rec Record
	for {
		if err := rd.Next(&rec); err != nil {
			if err != io.EOF {
				tr.err = err
			}
			return tr
		}
		if rec.Kind == recEvent {
			tr.events = append(tr.events, rec.Event)
		} else {
			tr.kinds = append(tr.kinds, rec.Kind)
		}
	}
}

// traceReplay decodes a stream the way Replay.Run does: each run of event
// records straight into the publish batch, every other record through the
// one-record lookahead.
func traceReplay(r io.Reader) decodeTrace {
	var tr decodeTrace
	rp, err := NewReplay(r, ReplayConfig{})
	if err != nil {
		panic("capture: fuzz header rejected: " + err.Error())
	}
	for {
		if rp.readEvents() {
			tr.events = append(tr.events, rp.batch...)
			continue
		}
		rec, err := rp.next()
		if err != nil {
			if err != io.EOF {
				tr.err = err
			}
			return tr
		}
		tr.kinds = append(tr.kinds, rec.Kind)
	}
}

// sameTrace reports how two decode traces differ, or "" when they match:
// the same events, the same other records, and the same error — same text,
// same io.ErrUnexpectedEOF wrapping.
func sameTrace(a, b decodeTrace) string {
	switch {
	case !slices.Equal(a.events, b.events):
		return fmt.Sprintf("events differ: %d vs %d decoded", len(a.events), len(b.events))
	case !bytes.Equal(a.kinds, b.kinds):
		return fmt.Sprintf("record kinds differ: %v vs %v", a.kinds, b.kinds)
	case (a.err == nil) != (b.err == nil) || a.err != nil && a.err.Error() != b.err.Error():
		return fmt.Sprintf("errors differ: %v vs %v", a.err, b.err)
	case errors.Is(a.err, io.ErrUnexpectedEOF) != errors.Is(b.err, io.ErrUnexpectedEOF):
		return fmt.Sprintf("truncation wrapping differs: %v vs %v", a.err, b.err)
	}
	return ""
}

// FuzzEventDecode is a differential fuzzer for the replay's run decoder: a
// valid header followed by fuzzed record bodies decodes identically through
// Reader.Next and through the replay's direct-to-batch path. Reader.Next
// reads through a one-byte reader, so every record is assembled by its
// checked path; the direct path runs twice, over whole reads (records
// decode from one buffered span) and over one-byte reads (every record
// falls back to the checked path).
func FuzzEventDecode(f *testing.F) {
	// all is every shape back to back; interleaved follows each shape with
	// a barrier, so every event starts a run of its own in a reused batch
	// slot.
	var all, interleaved []byte
	barrier := recordOf(f, func(r *Recorder) { r.TapBarrier(time.Millisecond) })
	for _, s := range recordShapes(f) {
		f.Add(s.raw)
		f.Add(s.raw[:len(s.raw)/2])
		all = append(all, s.raw...)
		interleaved = append(append(interleaved, s.raw...), barrier...)
	}
	f.Add(all)
	f.Add(interleaved)
	head := testHeaderBytes(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		if len(body) > fuzzMaxInput {
			t.Skip("oversized input")
		}
		data := append(append([]byte(nil), head...), body...)
		want := traceNext(iotest.OneByteReader(bytes.NewReader(data)))
		for name, r := range map[string]io.Reader{
			"whole":    bytes.NewReader(data),
			"one-byte": iotest.OneByteReader(bytes.NewReader(data)),
		} {
			if diff := sameTrace(want, traceReplay(r)); diff != "" {
				t.Fatalf("%s reads: replay decode diverges from Reader.Next: %s", name, diff)
			}
		}
	})
}

// TestCorpusRegression replays every checked-in corpus file through the fuzz
// harness — including any minimized crashers promoted into testdata/corpus —
// so past findings stay fixed without needing -fuzz.
func TestCorpusRegression(t *testing.T) {
	ents, err := os.ReadDir(corpusDir)
	if err != nil {
		t.Fatalf("seed corpus missing: %v", err)
	}
	n := 0
	for _, ent := range ents {
		if ent.IsDir() || filepath.Ext(ent.Name()) != ".bin" {
			continue
		}
		n++
		t.Run(ent.Name(), func(t *testing.T) {
			data, err := os.ReadFile(filepath.Join(corpusDir, ent.Name()))
			if err != nil {
				t.Fatal(err)
			}
			first := fuzzReplayOnce(data)
			second := fuzzReplayOnce(data)
			if !bytes.Equal(first, second) {
				t.Fatalf("corpus file replays nondeterministically:\nfirst:\n%s\nsecond:\n%s", first, second)
			}
		})
	}
	if n == 0 {
		t.Fatal("seed corpus is empty; fuzzing would start from nothing")
	}
}

// TestWriteSeedCorpus regenerates the checked-in seed corpus when
// HYPERTAP_UPDATE_CORPUS=1. The files are pure Generate output, so the
// regenerated bytes are reproducible; the env gate keeps `go test` read-only.
func TestWriteSeedCorpus(t *testing.T) {
	if os.Getenv("HYPERTAP_UPDATE_CORPUS") == "" {
		t.Skip("set HYPERTAP_UPDATE_CORPUS=1 to regenerate the seed corpus")
	}
	if err := os.MkdirAll(corpusDir, 0o755); err != nil {
		t.Fatal(err)
	}
	seeds := []struct {
		name string
		data []byte
	}{
		{"solo-small", Generate(101, 1, 2, 200, time.Millisecond)},
		{"fleet-4vm", Generate(202, 4, 2, 400, time.Millisecond)},
		{"fleet-8vm-wide", Generate(303, 8, 8, 600, 500*time.Microsecond)},
		{"single-vcpu", Generate(404, 2, 1, 100, 10*time.Millisecond)},
		{"cluster-sparse", GenerateHosted(505, 2, 2, 200, time.Millisecond, "h1", 4)},
	}
	for _, s := range seeds {
		path := filepath.Join(corpusDir, s.name+".bin")
		if err := os.WriteFile(path, s.data, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", path, len(s.data))
	}
}
