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
// Options can also expose the tracing plane: /flight serves a live
// snapshot of the flight recorder (flight.Snapshot, the same data an
// incident bundle holds) as Chrome trace-event JSON that Perfetto opens
// as it is, and /debug/pprof/ mounts the standard Go profiler so the hot
// path can be profiled on a running deployment.
package httpexport

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strings"
	"time"

	"hypertap/internal/core"
	"hypertap/internal/flight"
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
	// EM, when set, exposes its flight recorder on /flight: every VM's
	// exit ring and the span ring, one track per VM and per auditor, as
	// Chrome trace-event JSON. 404 when tracing is off.
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
		mux.HandleFunc("/flight", func(w http.ResponseWriter, _ *http.Request) {
			if o.EM.Flight() == nil {
				http.Error(w, "flight recorder disabled", http.StatusNotFound)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			_ = flight.WriteChrome(w, flight.Snapshot(o.EM))
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
