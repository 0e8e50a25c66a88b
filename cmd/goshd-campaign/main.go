// Command goshd-campaign runs the Guest OS Hang Detection fault-injection
// campaign of §VIII-A, regenerating Fig. 4 (detection coverage by workload,
// kernel preemption mode and fault persistence) and Fig. 5 (detection
// latency CDFs).
//
// The full campaign (-scale full) injects at all 374 fault sites across the
// four workloads, two kernels and two persistence modes — 5,984 boots, on
// the order of the paper's 17,952 injections (the paper repeated each cell).
// Smaller scales sample the site list.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"hypertap/internal/experiment"
	"hypertap/internal/telemetry"
	"hypertap/internal/telemetry/httpexport"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "goshd-campaign:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		scale    = flag.String("scale", "quick", "campaign scale: full | half | quick | smoke")
		latency  = flag.Bool("latency", true, "print the Fig. 5 latency CDFs")
		seed     = flag.Int64("seed", 1, "deterministic seed")
		parallel = flag.Int("parallel", 0, "concurrent injection runs (0 = GOMAXPROCS)")
		jsonOut  = flag.Bool("json", false, "emit JSON instead of tables")
		quiet    = flag.Bool("q", false, "suppress progress output")
		telAddr  = flag.String("telemetry-addr", "", "serve live campaign /metrics and /healthz on this address")
	)
	flag.Parse()

	sample := map[string]int{"full": 1, "half": 2, "quick": 8, "smoke": 32}[*scale]
	if sample == 0 {
		return fmt.Errorf("unknown -scale %q", *scale)
	}

	cfg := experiment.GOSHDConfig{SampleEvery: sample, Seed: *seed, Parallel: *parallel}
	if *telAddr != "" {
		cfg.Telemetry = telemetry.NewRegistry()
		srv, err := httpexport.Serve(*telAddr, httpexport.Options{Registry: cfg.Telemetry})
		if err != nil {
			return err
		}
		defer func() { _ = srv.Close() }()
		fmt.Fprintln(os.Stderr, "telemetry listening on", srv.Addr())
	}
	if !*quiet {
		start := time.Now()
		cfg.Progress = func(done, total int) {
			if done%50 == 0 || done == total {
				fmt.Fprintf(os.Stderr, "\r%d/%d runs (%v elapsed)", done, total,
					time.Since(start).Round(time.Second))
			}
		}
	}
	result, err := experiment.RunGOSHDCampaign(cfg)
	if err != nil {
		return err
	}
	if !*quiet {
		fmt.Fprintln(os.Stderr)
	}
	if *jsonOut {
		return result.WriteJSON(os.Stdout)
	}
	fmt.Print(experiment.FormatGOSHD(result))
	if *latency {
		fmt.Println()
		fmt.Print(experiment.FormatLatencyCDF(result))
	}
	return nil
}
