package httpexport

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hypertap/internal/core"
	"hypertap/internal/core/intercept"
	"hypertap/internal/flight"
	"hypertap/internal/guest"
	"hypertap/internal/host"
	"hypertap/internal/telemetry"
)

func testRegistry() *telemetry.Registry {
	reg := telemetry.NewRegistry()
	reg.Counter("hypertap_events_published_total").Add(1234)
	reg.Counter("hypertap_vm_exits_total", telemetry.L("reason", "CR_ACCESS")).Add(7)
	reg.Counter("hypertap_vm_exits_total", telemetry.L("reason", "WRMSR")).Add(3)
	reg.Gauge("hypertap_async_queue_depth").Set(5)
	h := reg.Histogram("hypertap_auditor_handle_seconds", telemetry.L("auditor", "goshd"))
	for i := 0; i < 100; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
	return reg
}

func get(t *testing.T, h http.Handler, path string) (int, string) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec.Code, rec.Body.String()
}

func TestMetricsEndpointPromFormat(t *testing.T) {
	h := Handler(Options{Registry: testRegistry()})
	code, body := get(t, h, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("GET /metrics = %d", code)
	}
	for _, want := range []string{
		"# TYPE hypertap_events_published_total counter",
		"hypertap_events_published_total 1234",
		`hypertap_vm_exits_total{reason="CR_ACCESS"} 7`,
		"# TYPE hypertap_async_queue_depth gauge",
		"hypertap_async_queue_depth 5",
		"# TYPE hypertap_auditor_handle_seconds summary",
		`hypertap_auditor_handle_seconds{auditor="goshd",quantile="0.5"}`,
		`hypertap_auditor_handle_seconds{auditor="goshd",quantile="0.99"}`,
		`hypertap_auditor_handle_seconds_count{auditor="goshd"} 100`,
		`hypertap_auditor_handle_seconds_sum{auditor="goshd"}`,
		"# TYPE hypertap_auditor_handle_seconds_max gauge",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q\nbody:\n%s", want, body)
		}
	}
	// TYPE headers must not repeat within a family.
	if n := strings.Count(body, "# TYPE hypertap_vm_exits_total counter"); n != 1 {
		t.Errorf("TYPE line for hypertap_vm_exits_total appears %d times", n)
	}
}

func TestMetricsJSONEndpoint(t *testing.T) {
	h := Handler(Options{Registry: testRegistry()})
	code, body := get(t, h, "/metrics.json")
	if code != http.StatusOK {
		t.Fatalf("GET /metrics.json = %d", code)
	}
	if !strings.Contains(body, `"hypertap_events_published_total"`) || !strings.Contains(body, `"p99_ns"`) {
		t.Errorf("unexpected /metrics.json body:\n%s", body)
	}
}

func TestHealthzHealthyAndDegraded(t *testing.T) {
	reg := telemetry.NewRegistry()
	code, body := get(t, Handler(Options{Registry: reg}), "/healthz")
	if code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("nil health: %d %q", code, body)
	}
	healthy := true
	h := Handler(Options{Registry: reg, Health: func() error {
		if healthy {
			return nil
		}
		return errors.New("vm0 heartbeat stalled")
	}})
	if code, _ := get(t, h, "/healthz"); code != http.StatusOK {
		t.Fatalf("healthy probe = %d", code)
	}
	healthy = false
	code, body = get(t, h, "/healthz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("degraded probe = %d, want 503", code)
	}
	if !strings.Contains(body, "heartbeat stalled") {
		t.Fatalf("degraded body = %q", body)
	}
}

func TestServeOverTCP(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", Options{Registry: testRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()
	resp, err := http.Get(fmt.Sprintf("http://%s/metrics", srv.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "hypertap_events_published_total") {
		t.Fatalf("live /metrics: %d %q", resp.StatusCode, body)
	}
}

// multiVMHost boots a two-VM host with telemetry, flight tracing and a
// shared RHC connection, runs it briefly, and hands back the pieces.
func multiVMHost(t *testing.T) (*host.Host, *core.RHCServer, *telemetry.Registry) {
	t.Helper()
	srv, err := core.NewRHCServer("127.0.0.1:0", 150*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	reg := telemetry.NewRegistry()
	feat := intercept.Features{ProcessSwitch: true, ThreadSwitch: true, Syscalls: true, IO: true}
	h, err := host.New(host.Config{
		Name: "export-host",
		VMs: []host.VMSpec{
			{Name: "vm-a", Guest: guest.Config{Seed: 5}, Monitor: true, Features: feat},
			{Name: "vm-b", Guest: guest.Config{Seed: 6}, Monitor: true, Features: feat},
		},
		Telemetry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.ConnectRHC(srv.Addr(), 16); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = h.Close() })
	if err := h.Boot(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < h.NumVMs(); i++ {
		if _, err := h.Machine(i).Kernel().CreateProcess(&guest.ProcSpec{
			Comm: "w", UID: 1000,
			Program: &guest.LoopProgram{Body: []guest.Step{
				guest.DoSyscall(guest.SysGetPID),
				guest.Compute(time.Millisecond),
			}},
		}, nil); err != nil {
			t.Fatal(err)
		}
	}
	h.Run(200 * time.Millisecond)
	return h, srv, reg
}

// TestMultiVMHostEndpoint drives the full endpoint against a live two-VM
// host: per-VM metric labels, RHC-backed health that degrades when one VM
// goes silent, the /flight trace, and the pprof mount.
func TestMultiVMHostEndpoint(t *testing.T) {
	h, srv, reg := multiVMHost(t)
	if _, ok := srv.WaitHeartbeat("vm-a", 2*time.Second); !ok {
		t.Fatal("no heartbeats from vm-a")
	}
	if _, ok := srv.WaitHeartbeat("vm-b", 2*time.Second); !ok {
		t.Fatal("no heartbeats from vm-b")
	}
	handler := Handler(Options{Registry: reg, Health: srv.Health, EM: h.EM(), Pprof: true})

	// Both VMs beating: healthy.
	if code, body := get(t, handler, "/healthz"); code != http.StatusOK {
		t.Fatalf("healthy fleet: /healthz = %d %q", code, body)
	}
	// Per-VM labeled series from the shared EM.
	_, body := get(t, handler, "/metrics")
	for _, want := range []string{
		`hypertap_events_published_total{vm="vm-a"}`,
		`hypertap_events_published_total{vm="vm-b"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// Flight: a Chrome trace with one named track per VM, exits on both
	// VMs' tracks, and the heartbeat steps the RHC feed recorded.
	code, body := get(t, handler, "/flight")
	if code != http.StatusOK {
		t.Fatalf("/flight = %d", code)
	}
	var trace struct {
		TraceEvents []struct {
			Name  string         `json:"name"`
			Phase string         `json:"ph"`
			TID   int            `json:"tid"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(body), &trace); err != nil {
		t.Fatalf("/flight is not JSON: %v", err)
	}
	tracks := make(map[string]int)
	exits := make(map[int]int)
	heartbeats := 0
	for _, ev := range trace.TraceEvents {
		switch {
		case ev.Phase == "M":
			if name, ok := ev.Args["name"].(string); ok {
				tracks[name] = ev.TID
			}
		case ev.Phase == "X":
			exits[ev.TID]++
		case ev.Phase == "i" && ev.Name == "heartbeat":
			heartbeats++
		}
	}
	for _, vm := range []string{"vm-a", "vm-b"} {
		tid, ok := tracks[vm]
		if !ok {
			t.Fatalf("/flight has no track named %s", vm)
		}
		if exits[tid] == 0 {
			t.Fatalf("VM %s's track carries no exits", vm)
		}
	}
	if heartbeats == 0 {
		t.Fatal("/flight carries no heartbeat steps")
	}
	if code, _ := get(t, handler, "/debug/pprof/"); code != http.StatusOK {
		t.Fatalf("/debug/pprof/ = %d", code)
	}

	// One VM wedges while its neighbor keeps beating: the shared health
	// probe degrades and names the sick VM.
	h.Machine(0).PauseVM()
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
				h.Run(50 * time.Millisecond)
				time.Sleep(10 * time.Millisecond)
			}
		}
	}()
	defer func() { close(stop); <-done }()
	deadline := time.Now().Add(3 * time.Second)
	for {
		// /flight snapshots the EM while the host runs; -race checks it.
		if code, _ := get(t, handler, "/flight"); code != http.StatusOK {
			t.Fatalf("/flight on a running host = %d", code)
		}
		code, body := get(t, handler, "/healthz")
		if code == http.StatusServiceUnavailable {
			if !strings.Contains(body, "vm-a") {
				t.Fatalf("degraded /healthz does not name the sick VM: %q", body)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("/healthz never degraded after vm-a went silent")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestFlightServesSnapshotTrace pins that /flight is exactly WriteChrome of
// flight.Snapshot on a quiescent one-VM EM, and that it answers 404 once
// tracing is off.
func TestFlightServesSnapshotTrace(t *testing.T) {
	em := core.NewMultiplexer()
	if _, err := em.AttachVM("vm0"); err != nil {
		t.Fatal(err)
	}
	em.SetFlight(core.NewFlightTable(1, 8, 8))
	aud := &core.AuditorFunc{AuditorName: "hrkd", EventMask: core.MaskAll, Fn: func(*core.Event) {}}
	if err := em.Register(aud, core.DeliverAsync, 0); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 12; i++ {
		em.Publish(&core.Event{Type: core.EvSyscall, Seq: uint64(i), Time: time.Duration(i) * time.Microsecond,
			Span: core.MintSpan(0, uint64(i), 0)})
	}
	em.Dispatch(0)
	em.RecordSpan(core.MintSpan(0, 12, 0), 0, core.PhaseVerdict, 1, 12*time.Microsecond)

	handler := Handler(Options{Registry: telemetry.NewRegistry(), EM: em})
	code, body := get(t, handler, "/flight")
	if code != http.StatusOK {
		t.Fatalf("/flight = %d", code)
	}
	var want strings.Builder
	if err := flight.WriteChrome(&want, flight.Snapshot(em)); err != nil {
		t.Fatal(err)
	}
	if body != want.String() {
		t.Fatalf("/flight body differs from WriteChrome(Snapshot(em)):\n got %s\nwant %s", body, want.String())
	}
	if !strings.Contains(body, `"vm0"`) || !strings.Contains(body, `"verdict"`) {
		t.Fatalf("/flight lacks VM 0's track or the verdict step: %s", body)
	}

	em.SetFlight(nil)
	if code, _ := get(t, handler, "/flight"); code != http.StatusNotFound {
		t.Fatalf("/flight with tracing off = %d, want 404", code)
	}
}
