// Package httpexport serves a telemetry.Registry over HTTP: Prometheus text
// exposition on /metrics, a JSON snapshot on /metrics.json, and a liveness
// probe on /healthz.
//
// The health probe closes the paper's self-monitoring loop: when the
// endpoint is backed by the Remote Health Checker (core.RHCServer.Health),
// a stalled heartbeat stream — the signature of a dead or wedged monitoring
// stack — flips /healthz to 503, so the same invariant the RHC enforces
// over TCP is visible to any off-the-shelf prober.
//
// Options can also expose the tracing plane: /flight drains the flight
// recorder's rings as JSON (the live sibling of an incident bundle), and
// /debug/pprof/ mounts the standard Go profiler so the hot path can be
// profiled on a running deployment.
package httpexport

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"hypertap/internal/core"
	"hypertap/internal/telemetry"
)

// Health reports the monitoring stack's liveness; nil error means healthy.
// A nil Health func is treated as always healthy.
type Health func() error

// Options configures an extended endpoint. The zero value serves nothing
// useful; set at least Registry.
type Options struct {
	// Registry backs /metrics and /metrics.json.
	Registry *telemetry.Registry
	// Health backs /healthz; nil means always healthy.
	Health Health
	// EM, when set, exposes its flight recorder on /flight: the whole
	// table, or one VM's ring with ?vm=N. 404 when tracing is off.
	EM *core.Multiplexer
	// Pprof mounts net/http/pprof under /debug/pprof/.
	Pprof bool
}

// Handler returns an http.Handler serving /metrics, /metrics.json and
// /healthz, plus /flight and /debug/pprof/ when o asks for them.
func Handler(o Options) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		WriteProm(w, o.Registry.Snapshot())
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(o.Registry.Snapshot())
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if o.Health != nil {
			if err := o.Health(); err != nil {
				w.WriteHeader(http.StatusServiceUnavailable)
				fmt.Fprintf(w, "degraded: %v\n", err)
				return
			}
		}
		fmt.Fprintln(w, "ok")
	})
	if o.EM != nil {
		mux.HandleFunc("/flight", func(w http.ResponseWriter, r *http.Request) {
			serveFlight(w, r, o.EM)
		})
	}
	if o.Pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// flightExitJSON is the debug-drain rendering of one core.FlightExit:
// identities as hex strings, masks as integers, the type by name.
type flightExitJSON struct {
	Span    string `json:"span"`
	TimeNS  int64  `json:"time_ns"`
	Type    string `json:"type"`
	VCPU    uint8  `json:"vcpu"`
	Digest  string `json:"digest"`
	Sync    uint64 `json:"sync_mask"`
	Queued  uint64 `json:"queued_mask"`
	Dropped uint64 `json:"dropped_mask"`
	Reason  uint8  `json:"exit_reason,omitempty"`
}

// flightSpanJSON is the debug-drain rendering of one core.SpanRecord.
type flightSpanJSON struct {
	Span   string `json:"span"`
	TimeNS int64  `json:"time_ns"`
	VM     uint16 `json:"vm"`
	Phase  string `json:"phase"`
	Actor  string `json:"actor"`
}

// flightVMJSON is one VM's ring in the drain.
type flightVMJSON struct {
	ID       int              `json:"id"`
	Name     string           `json:"name"`
	Recorded uint64           `json:"recorded"`
	Exits    []flightExitJSON `json:"exits"`
}

// flightJSON is the /flight response body.
type flightJSON struct {
	Depth int              `json:"depth"`
	VMs   []flightVMJSON   `json:"vms"`
	Spans []flightSpanJSON `json:"spans,omitempty"`
}

func renderExits(exits []core.FlightExit) []flightExitJSON {
	out := make([]flightExitJSON, len(exits))
	for i, e := range exits {
		out[i] = flightExitJSON{
			Span:    fmt.Sprintf("%#x", uint64(e.Span)),
			TimeNS:  e.TimeNS,
			Type:    e.Type.String(),
			VCPU:    e.VCPU,
			Digest:  fmt.Sprintf("%#x", e.Digest),
			Sync:    e.Sync,
			Queued:  e.Queued,
			Dropped: e.Dropped,
			Reason:  e.Reason,
		}
	}
	return out
}

// serveFlight drains the EM's flight recorder as JSON: every attached VM's
// ring, or one VM's with ?vm=N.
func serveFlight(w http.ResponseWriter, r *http.Request, em *core.Multiplexer) {
	fl := em.Flight()
	if fl == nil {
		http.Error(w, "flight recorder disabled", http.StatusNotFound)
		return
	}
	vms := em.VMs()
	if len(vms) == 0 {
		// A bare EM publishes everything as VM 0; give the drain one row.
		vms = []string{"vm0"}
	}
	resp := flightJSON{Depth: fl.Depth()}
	if q := r.URL.Query().Get("vm"); q != "" {
		id, err := strconv.Atoi(q)
		if err != nil || id < 0 {
			http.Error(w, "bad vm parameter", http.StatusBadRequest)
			return
		}
		if id >= len(vms) {
			http.Error(w, "no such VM", http.StatusNotFound)
			return
		}
		resp.VMs = []flightVMJSON{{
			ID:       id,
			Name:     vms[id],
			Recorded: em.FlightRecorded(core.VMID(id)),
			Exits:    renderExits(em.FlightExits(core.VMID(id))),
		}}
	} else {
		for id, name := range vms {
			resp.VMs = append(resp.VMs, flightVMJSON{
				ID:       id,
				Name:     name,
				Recorded: em.FlightRecorded(core.VMID(id)),
				Exits:    renderExits(em.FlightExits(core.VMID(id))),
			})
		}
		actors := em.ActorNames()
		for _, s := range em.FlightSpans() {
			actor := fmt.Sprintf("actor%d", s.Actor)
			if int(s.Actor) < len(actors) {
				actor = actors[s.Actor]
			}
			resp.Spans = append(resp.Spans, flightSpanJSON{
				Span:   fmt.Sprintf("%#x", uint64(s.Span)),
				TimeNS: s.TimeNS,
				VM:     uint16(s.VM),
				Phase:  s.Phase.String(),
				Actor:  actor,
			})
		}
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(resp)
}

// Server is a running telemetry endpoint.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Serve starts the telemetry endpoint on addr (e.g. "127.0.0.1:0").
func Serve(addr string, o Options) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("httpexport: listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: Handler(o), ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = srv.Serve(ln) }()
	return &Server{ln: ln, srv: srv}, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close shuts the endpoint down.
func (s *Server) Close() error { return s.srv.Close() }

// promLabels renders a label set (plus optional extra label) in Prometheus
// syntax, including the braces; empty when there are no labels.
func promLabels(labels []telemetry.Label, extraKey, extraVal string) string {
	if len(labels) == 0 && extraKey == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Key, l.Value)
	}
	if extraKey != "" {
		if len(labels) > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", extraKey, extraVal)
	}
	b.WriteByte('}')
	return b.String()
}

// WriteProm writes a snapshot in the Prometheus text exposition format.
// Histograms are exported as summaries (p50/p90/p99 quantiles, _sum and
// _count) plus a companion <name>_max gauge, with durations in seconds.
func WriteProm(w io.Writer, snap telemetry.Snapshot) {
	sort.SliceStable(snap.Counters, func(i, j int) bool { return snap.Counters[i].Name < snap.Counters[j].Name })
	sort.SliceStable(snap.Gauges, func(i, j int) bool { return snap.Gauges[i].Name < snap.Gauges[j].Name })
	sort.SliceStable(snap.Histograms, func(i, j int) bool { return snap.Histograms[i].Name < snap.Histograms[j].Name })

	family := ""
	for _, c := range snap.Counters {
		if c.Name != family {
			family = c.Name
			fmt.Fprintf(w, "# TYPE %s counter\n", c.Name)
		}
		fmt.Fprintf(w, "%s%s %d\n", c.Name, promLabels(c.Labels, "", ""), c.Value)
	}
	family = ""
	for _, g := range snap.Gauges {
		if g.Name != family {
			family = g.Name
			fmt.Fprintf(w, "# TYPE %s gauge\n", g.Name)
		}
		fmt.Fprintf(w, "%s%s %g\n", g.Name, promLabels(g.Labels, "", ""), g.Value)
	}
	family = ""
	for _, h := range snap.Histograms {
		if h.Name != family {
			family = h.Name
			fmt.Fprintf(w, "# TYPE %s summary\n", h.Name)
		}
		for _, q := range []struct {
			label string
			v     time.Duration
		}{{"0.5", h.P50}, {"0.9", h.P90}, {"0.99", h.P99}} {
			fmt.Fprintf(w, "%s%s %g\n", h.Name, promLabels(h.Labels, "quantile", q.label), q.v.Seconds())
		}
		fmt.Fprintf(w, "%s_sum%s %g\n", h.Name, promLabels(h.Labels, "", ""), h.Sum.Seconds())
		fmt.Fprintf(w, "%s_count%s %d\n", h.Name, promLabels(h.Labels, "", ""), h.Count)
	}
	family = ""
	for _, h := range snap.Histograms {
		if h.Name != family {
			family = h.Name
			fmt.Fprintf(w, "# TYPE %s_max gauge\n", h.Name)
		}
		fmt.Fprintf(w, "%s_max%s %g\n", h.Name, promLabels(h.Labels, "", ""), h.Max.Seconds())
	}
}
