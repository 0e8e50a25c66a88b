// Package runner is the sharded campaign engine shared by every experiment
// harness: it executes independent, seed-derived work units on a worker
// pool and merges their results deterministically, so parallel campaign
// output is bit-identical to serial output at the same seed.
//
// The contract a harness buys into:
//
//   - A campaign is a fixed list of units, each a pure function of its
//     Ctx (index, split seed, private RNG stream, telemetry shard). Units
//     never share mutable state; each typically boots its own VM.
//   - Results come back indexed by unit, so the harness folds them in unit
//     order regardless of which worker finished first — the merge is the
//     same code path serial and parallel.
//   - Randomness is split per unit (seed + unit index), never threaded
//     through a campaign-wide stream, so any unit re-run in isolation
//     reproduces its in-campaign behavior.
//   - Progress callbacks are serialized by the engine: a harness's callback
//     never races with itself however many workers run.
//   - Telemetry is sharded: each unit records into its own registry and the
//     engine merges the per-unit snapshots in unit order (counters and
//     histograms sum, gauges keep their high-water mark), optionally
//     folding each completed shard into a live registry for /metrics.
package runner

import (
	"math/rand"
	"runtime"
	"sync"

	"hypertap/internal/telemetry"
)

// UnitSeed derives the private seed of one unit from the campaign seed.
// The discipline is seed + unitIndex: adjacent units get distinct RNG
// streams, and a unit's stream depends only on (campaign seed, index) — not
// on how many workers ran or what order they finished in.
func UnitSeed(seed int64, index int) int64 { return seed + int64(index) }

// UnitRNG builds the unit's private generator from its split seed.
func UnitRNG(seed int64, index int) *rand.Rand {
	return rand.New(rand.NewSource(UnitSeed(seed, index)))
}

// Ctx carries one unit's identity and private resources into its Run
// function.
type Ctx struct {
	// Index is the unit's position in the campaign's flattened unit list.
	Index int
	// Seed is UnitSeed(campaign seed, Index).
	Seed int64
	// RNG is the unit's private stream, seeded from Seed. Draws here never
	// perturb any other unit.
	RNG *rand.Rand
	// Telemetry is the unit's registry shard, non-nil iff the campaign
	// enabled telemetry. Pass it to the unit's VM/auditors; the engine
	// merges all shards after the run.
	Telemetry *telemetry.Registry
}

// Campaign describes a sharded run: Units independent work items executed
// by Run on up to Parallel workers.
type Campaign[R any] struct {
	// Units is the number of work items.
	Units int
	// Parallel is the worker count; 0 selects GOMAXPROCS. Results are
	// identical regardless of parallelism.
	Parallel int
	// Seed is the campaign seed; unit i receives UnitSeed(Seed, i).
	Seed int64
	// Run executes one unit. It must depend only on ctx (plus the
	// campaign's immutable configuration captured in the closure).
	Run func(ctx *Ctx) (R, error)
	// Progress, when set, is called after each unit completes. Calls are
	// serialized by the engine; done counts completed units. The callback
	// must not call back into the engine.
	Progress func(done, total int)
	// Telemetry enables per-unit registry shards (Ctx.Telemetry) and the
	// merged Result.Telemetry snapshot.
	Telemetry bool
	// Live, when set with Telemetry, receives each completed unit's shard
	// snapshot as it finishes (Registry.Absorb), so an HTTP exporter
	// serving Live sees campaign totals grow while the run is in flight.
	Live *telemetry.Registry
}

// Result is a completed campaign.
type Result[R any] struct {
	// Units holds every unit's result, indexed by unit.
	Units []R
	// Telemetry is every telemetry shard absorbed in unit order into one
	// registry, present iff the campaign enabled telemetry. Unit order
	// makes the snapshot — series order included — independent of
	// scheduling.
	Telemetry *telemetry.Snapshot
}

// Execute runs the campaign and returns results indexed by unit.
//
// Error semantics: the first error — "first" meaning lowest unit index, so
// the reported failure matches what a serial run would have hit — is
// returned after in-flight units finish; units not yet started are
// abandoned. Per-unit errors must themselves be deterministic functions of
// the unit for this to equal the serial error exactly.
func (c *Campaign[R]) Execute() (*Result[R], error) {
	n := c.Units
	if n < 0 {
		n = 0
	}
	workers := c.Parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}

	results := make([]R, n)
	errs := make([]error, n)
	var shards []telemetry.Snapshot
	if c.Telemetry {
		shards = make([]telemetry.Snapshot, n)
	}

	var (
		mu     sync.Mutex // serializes progress delivery and Live absorption
		done   int
		next   int
		failed bool
		wg     sync.WaitGroup
	)
	claim := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if failed || next >= n {
			return 0, false
		}
		i := next
		next++
		return i, true
	}
	finish := func(i int, shard *telemetry.Registry) {
		mu.Lock()
		defer mu.Unlock()
		if errs[i] != nil {
			failed = true
		}
		if shard != nil {
			shards[i] = shard.Snapshot()
			if c.Live != nil {
				c.Live.Absorb(shards[i])
			}
		}
		done++
		if c.Progress != nil {
			c.Progress(done, n)
		}
	}

	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i, ok := claim()
				if !ok {
					return
				}
				ctx := &Ctx{Index: i, Seed: UnitSeed(c.Seed, i), RNG: UnitRNG(c.Seed, i)}
				if c.Telemetry {
					ctx.Telemetry = telemetry.NewRegistry()
				}
				results[i], errs[i] = c.Run(ctx)
				finish(i, ctx.Telemetry)
			}
		}()
	}
	wg.Wait()

	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	res := &Result[R]{Units: results}
	if c.Telemetry {
		// The same fold Live gets, in unit order instead of finish order.
		// Absorb raises a gauge from 0, which loses nothing here: the gauges
		// campaigns register (queue depth and its high-water mark) are never
		// negative.
		merged := telemetry.NewRegistry()
		for i := range shards {
			merged.Absorb(shards[i])
		}
		snap := merged.Snapshot()
		res.Telemetry = &snap
	}
	return res, nil
}
