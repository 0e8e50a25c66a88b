// Command hotpath-bench measures the throughput of HyperTap's two hottest
// paths — event routing through the Event Multiplexer and guest-virtual
// translation behind the helper API — plus the end-to-end campaign
// wall-clock they feed into. It writes a JSON report
// (results/BENCH_hotpath.json in the repo) so perf PRs argue from numbers
// on record, not from memory.
//
// Sections:
//
//   - publish: events/sec through Multiplexer.Publish (and Dispatch for the
//     async mode) at 1–8 registered auditors, with allocs/op.
//   - guest_read: a VMI task-list walk (the ReadU64GVA/ReadU32GVA/
//     ReadCStringGVA storm every HRKD cross-view check performs) and the
//     translation cache's hit/miss microcosts.
//   - campaigns: wall-clock for a GOSHD fault-injection subset and the full
//     HRKD rootkit matrix — the 17,952-injection scale multiplier.
//   - fleet (written separately to -fleet-out): events/sec through a
//     host-shared EM at 1/2/4/8 attached VMs with one VM-scoped auditor
//     each, sync and async — the scaling claim of the per-host fleet plane.
//   - trace (written separately to -trace-out): the flight recorder's
//     capture overhead on the 3-sync-auditor publish path, off vs on vs
//     on-with-spans — the ≤5% budget of the tracing plane.
//   - cluster (written separately to -cluster-out): whole-cluster stepping
//     throughput at 1/2/4 hosts x 2 VMs under the shared datacenter clock —
//     the cluster plane's "stepping M hosts is M times one host" scaling
//     claim.
//
// -cpuprofile/-memprofile wrap the whole run in a pprof capture so the next
// perf PR starts from a profile instead of a guess. -baseline embeds a
// previously captured report as the before column.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"testing"
	"time"

	"hypertap/internal/core"
	"hypertap/internal/experiment"
	"hypertap/internal/guest"
	"hypertap/internal/hv"
	"hypertap/internal/inject"
	"hypertap/internal/vmi"
)

type publishRun struct {
	Auditors     int     `json:"auditors"`
	Mode         string  `json:"mode"`
	NsPerEvent   float64 `json:"ns_per_event"`
	EventsPerSec float64 `json:"events_per_sec"`
	AllocsPerOp  int64   `json:"allocs_per_op"`
}

type guestReadBench struct {
	TasksPerWalk int     `json:"tasks_per_walk"`
	WalkNs       float64 `json:"walk_ns"`
	WalkAllocs   int64   `json:"walk_allocs_per_op"`
	// Translation-cache microcosts: a warm (hit) translate vs one forced
	// through a full directory walk by flushing first. Zero when the tree
	// has no TLB (the pre-optimization baseline).
	CachedTranslateNs  float64 `json:"cached_translate_ns,omitempty"`
	FlushedTranslateNs float64 `json:"flushed_translate_ns,omitempty"`
	WalkTLBHitRate     float64 `json:"walk_tlb_hit_rate,omitempty"`
}

type campaignRun struct {
	Name    string  `json:"name"`
	Units   int     `json:"units"`
	Seconds float64 `json:"seconds"`
}

type hostInfo struct {
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Note       string `json:"note,omitempty"`
}

type report struct {
	Description string         `json:"description"`
	Host        hostInfo       `json:"host"`
	Publish     []publishRun   `json:"publish"`
	GuestRead   guestReadBench `json:"guest_read"`
	Campaigns   []campaignRun  `json:"campaigns"`
	// Baseline, when present, is the same report captured before the
	// mask-indexed routing table and software TLB landed.
	Baseline *report `json:"baseline,omitempty"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "hotpath-bench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		out         = flag.String("out", "", "write the JSON report here (default stdout)")
		baseline    = flag.String("baseline", "", "embed a prior report as the before column")
		seed        = flag.Int64("seed", 1, "deterministic seed")
		skipCamp    = flag.Bool("skip-campaigns", false, "skip the end-to-end campaign timings")
		cpuprofile  = flag.String("cpuprofile", "", "write a pprof CPU profile of the whole run")
		memprofile  = flag.String("memprofile", "", "write a pprof heap profile at exit")
		vms         = flag.String("vms", "1,2,4,8", "comma-separated VM counts for the fleet scaling section")
		fleetOut    = flag.String("fleet-out", "", "write the fleet scaling report here (default stdout)")
		fleetOnly   = flag.Bool("fleet-only", false, "run only the fleet scaling section")
		traceOut    = flag.String("trace-out", "", "write the tracing-plane overhead report here (default stdout)")
		traceOnly   = flag.Bool("trace-only", false, "run only the tracing-plane overhead section")
		clusterOut  = flag.String("cluster-out", "", "write the cluster scaling report here (default stdout)")
		clusterOnly = flag.Bool("cluster-only", false, "run only the cluster scaling section")
	)
	flag.Parse()
	if counts, err := parseVMCounts(*vms); err != nil {
		return err
	} else {
		fleetVMCounts = counts
	}
	if *fleetOnly {
		return runFleetBench(*fleetOut)
	}
	if *traceOnly {
		return runTraceBench(*traceOut)
	}
	if *clusterOnly {
		return runClusterBench(*clusterOut, *seed)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	rep := report{
		Description: "Hot-path throughput baseline. Regenerate with `make bench-hotpath`.",
		Host:        currentHostInfo(),
	}

	for _, auditors := range []int{1, 2, 3, 4, 8} {
		for _, mode := range []core.DeliveryMode{core.DeliverSync, core.DeliverAsync} {
			r := benchPublish(auditors, mode)
			rep.Publish = append(rep.Publish, r)
			fmt.Fprintf(os.Stderr, "publish  %-5s auditors=%d  %8.1f ns/event  %12.0f events/s  %d allocs/op\n",
				r.Mode, r.Auditors, r.NsPerEvent, r.EventsPerSec, r.AllocsPerOp)
		}
	}

	gr, err := benchGuestRead(*seed)
	if err != nil {
		return err
	}
	rep.GuestRead = *gr
	fmt.Fprintf(os.Stderr, "walk     %d tasks  %8.1f ns/walk  %d allocs/op\n",
		gr.TasksPerWalk, gr.WalkNs, gr.WalkAllocs)
	if gr.CachedTranslateNs > 0 {
		fmt.Fprintf(os.Stderr, "xlate    cached %.1f ns  flushed %.1f ns  walk hit-rate %.3f\n",
			gr.CachedTranslateNs, gr.FlushedTranslateNs, gr.WalkTLBHitRate)
	}

	if !*skipCamp {
		camps, err := benchCampaigns(*seed)
		if err != nil {
			return err
		}
		rep.Campaigns = camps
	}

	// The fleet scaling and cluster sections have their own report files;
	// without a destination they only run under -fleet-only / -cluster-only
	// (which stream to stdout).
	if *fleetOut != "" {
		if err := runFleetBench(*fleetOut); err != nil {
			return err
		}
	}
	if *clusterOut != "" {
		if err := runClusterBench(*clusterOut, *seed); err != nil {
			return err
		}
	}

	if *baseline != "" {
		raw, err := os.ReadFile(*baseline)
		if err != nil {
			return err
		}
		var base report
		if err := json.Unmarshal(raw, &base); err != nil {
			return fmt.Errorf("parsing baseline %s: %w", *baseline, err)
		}
		base.Baseline = nil
		rep.Baseline = &base
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			return err
		}
	}

	dst := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		dst = f
	}
	enc := json.NewEncoder(dst)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// benchPublish measures one (auditor count, delivery mode) cell. Async cells
// drain with Dispatch every drainEvery publishes, so the number prices the
// full queue-and-drain round trip, not an overflowing ring.
func benchPublish(auditors int, mode core.DeliveryMode) publishRun {
	const drainEvery = 1024
	res := testing.Benchmark(func(b *testing.B) {
		em := core.NewMultiplexer()
		for i := 0; i < auditors; i++ {
			aud := &core.AuditorFunc{
				AuditorName: fmt.Sprintf("aud%d", i),
				EventMask:   core.MaskAll,
				Fn:          func(*core.Event) {},
			}
			if err := em.Register(aud, mode, 0); err != nil {
				b.Fatal(err)
			}
		}
		ev := &core.Event{Type: core.EvSyscall, SyscallNr: 4}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ev.Seq = uint64(i)
			em.Publish(ev)
			if mode == core.DeliverAsync && i%drainEvery == drainEvery-1 {
				em.Dispatch(0)
			}
		}
		if mode == core.DeliverAsync {
			em.Dispatch(0)
		}
	})
	ns := float64(res.T.Nanoseconds()) / float64(res.N)
	return publishRun{
		Auditors:     auditors,
		Mode:         mode.String(),
		NsPerEvent:   ns,
		EventsPerSec: 1e9 / ns,
		AllocsPerOp:  res.AllocsPerOp(),
	}
}

// newWalkVM boots a small guest with extra processes so the task-list walk
// has realistic length, and advances it so serialized state is warm.
func newWalkVM(seed int64) (*hv.Machine, error) {
	m, err := hv.New(hv.Config{VCPUs: 2, MemBytes: 64 << 20, Guest: guest.Config{Seed: seed}})
	if err != nil {
		return nil, err
	}
	if err := m.Boot(); err != nil {
		return nil, err
	}
	for i := 0; i < 12; i++ {
		if _, err := m.Kernel().CreateProcess(&guest.ProcSpec{
			Comm: fmt.Sprintf("svc%d", i), UID: 500,
			Program: &guest.LoopProgram{Body: []guest.Step{guest.Sleep(10 * time.Millisecond)}},
		}, nil); err != nil {
			return nil, err
		}
	}
	m.Run(30 * time.Millisecond)
	return m, nil
}

func benchGuestRead(seed int64) (*guestReadBench, error) {
	m, err := newWalkVM(seed)
	if err != nil {
		return nil, err
	}
	intro := vmi.New(m, m.Kernel().Symbols())
	probe, err := intro.ListProcesses()
	if err != nil {
		return nil, err
	}
	out := &guestReadBench{TasksPerWalk: len(probe)}

	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := intro.ListProcesses(); err != nil {
				b.Fatal(err)
			}
		}
	})
	out.WalkNs = float64(res.T.Nanoseconds()) / float64(res.N)
	out.WalkAllocs = res.AllocsPerOp()

	fillTranslateBench(m, out)
	return out, nil
}

func benchCampaigns(seed int64) ([]campaignRun, error) {
	var out []campaignRun

	units := 0
	start := time.Now()
	if _, err := experiment.RunGOSHDCampaign(experiment.GOSHDConfig{
		SampleEvery:  8,
		Workloads:    []string{"make -j2", "http"},
		Kernels:      []bool{false},
		Persistences: []inject.Persistence{inject.Persistent},
		Seed:         seed,
		Progress:     func(done, total int) { units = total },
	}); err != nil {
		return nil, err
	}
	out = append(out, campaignRun{Name: "goshd-subset", Units: units, Seconds: time.Since(start).Seconds()})
	fmt.Fprintf(os.Stderr, "campaign goshd-subset  %6.2fs  (%d units)\n", out[len(out)-1].Seconds, units)

	start = time.Now()
	hr, err := experiment.RunHRKDMatrix(experiment.HRKDConfig{Seed: seed})
	if err != nil {
		return nil, err
	}
	out = append(out, campaignRun{Name: "hrkd-matrix", Units: len(hr.Rows), Seconds: time.Since(start).Seconds()})
	fmt.Fprintf(os.Stderr, "campaign hrkd-matrix   %6.2fs  (%d units)\n", out[len(out)-1].Seconds, len(hr.Rows))

	return out, nil
}
