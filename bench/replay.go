package main

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"io"
	"runtime"
	"time"

	"hypertap/internal/auditors/hrkd"
	"hypertap/internal/capture"
	"hypertap/internal/core"
	"hypertap/internal/guest"
	"hypertap/internal/vclock"
)

// replay-fleet: set-up records the fleet-mixed configuration through a
// capture recorder (auditors reading through its recording views); every
// round then replays the capture, guestless, into the identical auditor
// set. There is no guest and no EF: capture decode, view answering,
// PublishBatch and async dispatch are the whole cost. This is the read
// side of the format fig7-syscall writes.

var replayDef = &workloadDef{name: "replay-fleet", setup: setupReplay}

type replayFleet struct {
	data   *chunks
	ids    []core.VMID
	sym    []guest.Symbols
	passes int
	// events and barriers count the capture's records of each kind.
	events, barriers uint64
	// live is the recorded run's verdicts.
	live fleetVerdicts
	// lag holds the recorded run's exit→audit lag samples (traced runs).
	lag []float64
}

func setupReplay(sz sizes, seed int64, hk *hooks) (instance, time.Duration, tally, error) {
	var b tally
	t0 := time.Now()
	data := &chunks{}
	hdr := capture.Header{Tick: fleetTick}
	for _, name := range fleetVMNames(sz.fleetVMs) {
		hdr.VMs = append(hdr.VMs, capture.VMHeader{Name: name, VCPUs: 2})
	}
	rec, err := capture.NewRecorder(data, hdr)
	if err != nil {
		return nil, 0, b, err
	}
	// A traced run hooks the recording: a replay has no exits of its own,
	// so it reports the exit→audit lag of the live run it replays.
	fh, err := buildFleetHost(sz, seed, hk, rec, &b)
	if err != nil {
		return nil, 0, b, err
	}
	// Recording runs in fleet-mixed's round steps, collecting garbage
	// between them as the fleet-mixed rounds do: the VMs' guest memory
	// inflates the heap goal, so uncollected garbage would otherwise pile
	// up for the whole recording.
	for done := time.Duration(0); done < sz.replayRecord; done += sz.fleetRound {
		fh.h.Run(min(sz.fleetRound, sz.replayRecord-done))
		runtime.GC()
	}
	if err := rec.Finish(); err != nil {
		return nil, 0, b, err
	}
	v, err := fh.auds.verdicts(fh.h.EM())
	if err != nil {
		return nil, 0, b, err
	}
	rf := &replayFleet{data: data, ids: fh.auds.ids, passes: sz.replayPasses, live: v}
	if hk != nil {
		rf.lag = hk.lag.samples
		hk.lag.samples = nil
	}
	for _, m := range fh.h.Machines() {
		rf.sym = append(rf.sym, m.Kernel().Symbols())
	}
	if err := rf.count(); err != nil {
		return nil, 0, b, err
	}
	return rf, time.Since(t0), b, nil
}

func (rf *replayFleet) recordedLag() []float64 { return rf.lag }

// count tallies the capture's event and barrier records.
func (rf *replayFleet) count() error {
	rd, err := capture.NewReader(rf.data.reader())
	if err != nil {
		return err
	}
	var rec capture.Record
	for {
		if err := rd.Next(&rec); err == io.EOF {
			return nil
		} else if err != nil {
			return err
		}
		switch capture.KindName(rec.Kind) {
		case "event":
			rf.events++
		case "barrier":
			rf.barriers++
		}
	}
}

// chunks holds a capture in fixed-size chunks, so recording one of
// unknown size never copies it to grow.
type chunks struct {
	bufs [][]byte
	n    int
	crc  uint32
}

const chunkSize = 1 << 20

func (c *chunks) Write(p []byte) (int, error) {
	c.crc = crc32.Update(c.crc, castagnoli, p)
	c.n += len(p)
	for rest := p; len(rest) > 0; {
		if len(c.bufs) == 0 || len(c.bufs[len(c.bufs)-1]) == chunkSize {
			c.bufs = append(c.bufs, make([]byte, 0, chunkSize))
		}
		last := &c.bufs[len(c.bufs)-1]
		k := min(chunkSize-len(*last), len(rest))
		*last = append(*last, rest[:k]...)
		rest = rest[k:]
	}
	return len(p), nil
}

func (c *chunks) reader() io.Reader {
	rs := make([]io.Reader, len(c.bufs))
	for i, b := range c.bufs {
		rs[i] = bytes.NewReader(b)
	}
	return io.MultiReader(rs...)
}

// replayDigest is what every replay pass must reproduce.
type replayDigest struct {
	CaptureBytes int
	CaptureCRC   uint32
	Events       uint64
	Verdicts     fleetVerdicts
}

func (rf *replayFleet) round(md mode, hk *hooks) (round, error) {
	r := round{md: md}
	for p := 0; p < rf.passes; p++ {
		r.ops++
		t0 := time.Now()
		rp, err := capture.NewReplay(rf.data.reader(), capture.ReplayConfig{
			MaxVMs: len(rf.ids),
			Flight: core.NewFlightTable(len(rf.ids), 0, 0),
			Strict: true,
		})
		if err != nil {
			return r, err
		}
		auds, err := wireFleet(rp.EM(), fleetSource{
			ids:     rf.ids,
			clock:   func(i int) *vclock.Clock { return rp.Clock(rf.ids[i]) },
			view:    func(i int) core.GuestView { return rp.View(rf.ids[i]) },
			counter: func(i int) hrkd.ProcessCounter { return rp.Counter(rf.ids[i]) },
			sym:     rf.sym,
		}, hk)
		if err != nil {
			return r, err
		}
		r.setup += time.Since(t0)
		es := snapEM(rp.EM())
		t1 := time.Now()
		if md == modeTraced {
			hk.tr.openWindow()
			hk.tr.begin(spReplay)
			err = rp.Run()
			hk.tr.end()
			hk.tr.closeWindow()
		} else {
			err = rp.Run()
		}
		r.wall += time.Since(t1)
		if err != nil {
			return r, err
		}
		if n := rp.Divergences(); n != 0 {
			return r, fmt.Errorf("replay diverged %d times", n)
		}
		v, err := auds.verdicts(rp.EM())
		if err != nil {
			return r, err
		}
		if got, want := canon(v), canon(rf.live); got != want {
			return r, fmt.Errorf("replay verdicts differ from the live run's:\n  replay %s\n  live   %s", got, want)
		}
		r.t.work += rf.events
		r.t.barriers += rf.barriers
		r.t.addEM(rp.EM(), es)
		r.t.captureBytes += uint64(rf.data.n)
		r.t.capturedEvents += rf.events
	}
	r.digest = canon(replayDigest{
		CaptureBytes: rf.data.n,
		CaptureCRC:   rf.data.crc,
		Events:       rf.events,
		Verdicts:     rf.live,
	})
	return r, nil
}
