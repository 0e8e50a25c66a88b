package cluster

import "time"

// The central health aggregator: the cluster-level analogue of the paper's
// Remote Health Checker. Where internal/core's RHCServer judges VM liveness
// from sampled heartbeats over TCP in wall-clock time, the aggregator judges
// *host* liveness from per-host heartbeat summaries in virtual time — each
// round it reads every host's published-event total (the same monotonic
// counter the RHC sampler feeds), treats any advance as a beat, and declares
// a host sick once its silence exceeds the configured threshold. Running in
// virtual time keeps verdicts a pure function of the configuration, so tests
// pin the exact verdict round; production hosts still dial a real RHCServer
// (host.ConnectRHC) for off-host liveness.

// Verdict is one host-level health decision: the aggregator declared the
// host sick.
type Verdict struct {
	// Host is the host declared sick.
	Host string
	// At is the cluster virtual time of the verdict.
	At time.Duration
	// Silence is how long the host had published nothing.
	Silence time.Duration
}

// HostHealth is one host's heartbeat summary as the aggregator last saw it.
type HostHealth struct {
	// Host names the host.
	Host string
	// Published is the host's total published events — the heartbeat counter.
	Published uint64
	// LastBeat is the virtual time the counter last advanced.
	LastBeat time.Duration
	// Silence is how long the counter has been flat.
	Silence time.Duration
	// Sick reports whether the aggregator has issued a verdict for the host.
	Sick bool
}

// aggregator tracks per-host beats and latches sick verdicts.
type aggregator struct {
	sickAfter time.Duration
	lastPub   []uint64
	lastBeat  []time.Duration
	sick      []bool
	verdicts  []Verdict
}

func newAggregator(hosts int, sickAfter time.Duration) *aggregator {
	return &aggregator{
		sickAfter: sickAfter,
		lastPub:   make([]uint64, hosts),
		lastBeat:  make([]time.Duration, hosts),
		sick:      make([]bool, hosts),
	}
}

// observe consumes one round's heartbeat summaries and issues verdicts. A
// sick verdict latches: the host is never judged again — re-admitting a
// recovered host is an operator decision, not an automatic one (the paper's
// RHC makes the same choice for VM restarts).
func (a *aggregator) observe(c *Cluster) {
	for i, h := range c.hosts {
		pub := h.EM().Published()
		if pub > a.lastPub[i] {
			a.lastPub[i] = pub
			a.lastBeat[i] = c.elapsed
			continue
		}
		if a.sick[i] {
			continue
		}
		silence := c.elapsed - a.lastBeat[i]
		if silence <= a.sickAfter {
			continue
		}
		a.sick[i] = true
		if c.sickHosts != nil {
			c.sickHosts.Add(1)
		}
		a.verdicts = append(a.verdicts, Verdict{Host: h.Name(), At: c.elapsed, Silence: silence})
	}
}

// health renders the current summaries.
func (a *aggregator) health(c *Cluster) []HostHealth {
	out := make([]HostHealth, len(c.hosts))
	for i, h := range c.hosts {
		out[i] = HostHealth{
			Host:      h.Name(),
			Published: h.EM().Published(),
			LastBeat:  a.lastBeat[i],
			Silence:   c.elapsed - a.lastBeat[i],
			Sick:      a.sick[i],
		}
	}
	return out
}
