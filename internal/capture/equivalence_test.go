package capture

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"hypertap/internal/auditors/fleetwatch"
	"hypertap/internal/auditors/goshd"
	"hypertap/internal/auditors/hrkd"
	"hypertap/internal/auditors/ped"
	"hypertap/internal/core"
	"hypertap/internal/core/intercept"
	"hypertap/internal/flight"
	"hypertap/internal/guest"
	"hypertap/internal/host"
	"hypertap/internal/hv"
	"hypertap/internal/malware"
	"hypertap/internal/vclock"
	"hypertap/internal/vmi"
)

// The capture→replay≡live equivalence suite: a live run recorded through the
// exit-stream tap must replay — with no guest anywhere — to byte-identical
// auditor verdicts, event streams and flight rings. This is the property the
// whole record/replay plane stands on: if it holds, a capture file IS the
// run as far as the auditing plane can tell, and fuzzing the replayer
// exercises exactly the code a live deployment runs.

func allCaptureFeatures() intercept.Features {
	return intercept.Features{
		ProcessSwitch: true, ThreadSwitch: true, TSSIntegrity: true,
		Syscalls: true, IO: true,
	}
}

// capCollector records one VM's delivered stream synchronously.
type capCollector struct {
	vm  core.VMID
	mu  sync.Mutex
	evs []core.Event
}

func (c *capCollector) Name() string          { return fmt.Sprintf("collect%d", c.vm) }
func (c *capCollector) Mask() core.EventMask  { return core.MaskAll }
func (c *capCollector) VMScope() core.VMScope { return core.ScopeVM(c.vm) }
func (c *capCollector) HandleEvent(e *core.Event) {
	c.mu.Lock()
	c.evs = append(c.evs, *e)
	c.mu.Unlock()
}

func (c *capCollector) events() []core.Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]core.Event, len(c.evs))
	copy(out, c.evs)
	return out
}

// soloAuditors is the full auditing plane of the solo equivalence runs: one
// sync collector, GOSHD, fleetwatch, HRKD and HT-Ninja — every auditor the
// repository ships, in one fixed registration order (actor IDs must line up
// between live and replay for the flight rings to compare byte-for-byte).
type soloAuditors struct {
	col *capCollector
	gos *goshd.Detector
	fw  *fleetwatch.Accountant
	hr  *hrkd.Detector
	nin *ped.HTNinja
}

// buildSoloAuditors registers the full set on em, scoped to VM vm — the
// anchor VM of the stream. view/counter are the live machine wrapped by the
// recorder, or the replay's stream-backed implementations — the auditors
// cannot tell the difference, which is the point. It is t-free so the fuzz
// harness can share the exact wiring.
func buildSoloAuditors(em *core.Multiplexer, vm core.VMID, clock *vclock.Clock,
	vcpus int, view core.GuestView, counter hrkd.ProcessCounter, sym guest.Symbols) (*soloAuditors, error) {
	s := &soloAuditors{col: &capCollector{vm: vm}}
	if err := em.Register(s.col, core.DeliverSync, 0); err != nil {
		return nil, err
	}
	var err error
	if s.gos, err = goshd.New(goshd.Config{
		VM: vm, Clock: clock, VCPUs: vcpus, Threshold: 30 * time.Millisecond,
	}); err != nil {
		return nil, err
	}
	if err := em.Register(s.gos, core.DeliverAsync, 0); err != nil {
		return nil, err
	}
	s.fw = fleetwatch.New(fleetwatch.Config{VMName: em.VMName})
	if err := em.Register(s.fw, core.DeliverAsync, 1<<16); err != nil {
		return nil, err
	}
	intro := vmi.New(view, sym)
	if s.hr, err = hrkd.New(hrkd.Config{
		VM: vm, View: view, Counter: counter, Intro: intro,
	}); err != nil {
		return nil, err
	}
	if err := em.Register(s.hr, core.DeliverAsync, 0); err != nil {
		return nil, err
	}
	if s.nin, err = ped.NewHTNinja(ped.HTNinjaConfig{
		Policy: ped.DefaultPolicy(), VM: vm, View: view, Intro: intro,
	}); err != nil {
		return nil, err
	}
	if err := em.Register(s.nin, core.DeliverSync, 0); err != nil {
		return nil, err
	}
	return s, nil
}

func wireSoloAuditors(t *testing.T, em *core.Multiplexer, vm core.VMID, clock *vclock.Clock,
	vcpus int, view core.GuestView, counter hrkd.ProcessCounter, sym guest.Symbols) *soloAuditors {
	t.Helper()
	s, err := buildSoloAuditors(em, vm, clock, vcpus, view, counter, sym)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// soloOutcome is everything the solo equivalence property compares.
type soloOutcome struct {
	events   []core.Event
	alarms   []goshd.HangAlarm
	dets     []ped.Detection
	checks   uint64
	storms   []fleetwatch.Storm
	fwTotal  uint64
	report   *hrkd.CrossViewReport
	exitRing []byte
	spanRing []byte
}

func (s *soloAuditors) outcome(t *testing.T, em *core.Multiplexer) soloOutcome {
	t.Helper()
	return soloOutcome{
		events:   s.col.events(),
		alarms:   s.gos.Alarms(),
		dets:     s.nin.Detections(),
		checks:   s.nin.Checks(),
		storms:   s.fw.Storms(),
		fwTotal:  s.fw.Total(),
		exitRing: ringBytes(t, em, 0),
		spanRing: spanBytes(t, em),
	}
}

// ringBytes serializes a VM's flight exit ring with the flight codec — the
// byte-level identity the equivalence property demands.
func ringBytes(t *testing.T, em *core.Multiplexer, vm core.VMID) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := flight.WriteExits(&buf, em.FlightExits(vm)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func spanBytes(t *testing.T, em *core.Multiplexer) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := flight.WriteSpans(&buf, em.FlightSpans()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

const (
	soloSeed = 23
	soloName = "cap-vm0"
)

// liveSoloRun executes the recorded live run: a monitored machine with the
// full auditing plane, busy "malware" processes, and a DKOM rootkit that
// hides them mid-run — so the epilogue cross-check produces real findings.
// Returns the capture bytes, the live outcome, the epilogue report, and the
// guest symbols the replay side needs for its introspector.
func liveSoloRun(t *testing.T) ([]byte, soloOutcome, guest.Symbols) {
	t.Helper()
	fl := core.NewFlightTable(1, 0, 0)
	m, err := hv.New(hv.Config{
		Name:   soloName,
		VCPUs:  2,
		Guest:  guest.Config{Profile: guest.ProfileLinux26, Seed: soloSeed},
		Flight: fl,
	})
	if err != nil {
		t.Fatal(err)
	}
	engine, err := m.EnableMonitoring(allCaptureFeatures())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	rec, err := NewRecorder(&buf, Header{
		Tick: time.Millisecond,
		VMs:  []VMHeader{{Name: soloName, VCPUs: m.NumVCPUs()}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Boot(); err != nil {
		t.Fatal(err)
	}
	// Tap and auditors attach after boot: guest symbols only exist once the
	// kernel is up, and starting the recording here keeps the captured stream
	// exactly what the live auditors saw.
	m.SetExitTap(rec)
	// Every auditor guest read goes through the recording wrappers; the
	// introspector shares the wrapped view, so VMI walks are recorded too.
	view := rec.View(m, 0)
	counter := rec.Counter(engine, 0)
	sym := m.Kernel().Symbols()
	auds := wireSoloAuditors(t, m.EM(), 0, m.Clock(), m.NumVCPUs(), view, counter, sym)
	auds.gos.Start()
	for i := 0; i < 2; i++ {
		if _, err := m.Kernel().CreateProcess(&guest.ProcSpec{
			Comm: "malware", UID: 0,
			Program: &guest.LoopProgram{Body: []guest.Step{
				guest.Compute(time.Millisecond),
				guest.DoSyscall(guest.SysWrite, 1, 128),
				guest.Sleep(3 * time.Millisecond),
			}},
		}, nil); err != nil {
			t.Fatal(err)
		}
	}
	m.Run(50 * time.Millisecond)
	// Root loads a DKOM rootkit that unlinks the malware from the task
	// list; the VMI comparison view goes blind while the CPU keeps seeing
	// the hidden threads — HRKD's detection case.
	rk := (malware.CatalogEntry{Name: "SucKIT", Profile: guest.ProfileLinux26,
		Techniques: malware.TechKmem | malware.TechDKOM}).Build("malware")
	if _, err := m.Kernel().CreateProcess(&guest.ProcSpec{
		Comm: "dropper", UID: 0,
		Program: guest.NewStepList(guest.LoadModule(rk)),
	}, nil); err != nil {
		t.Fatal(err)
	}
	m.Run(100 * time.Millisecond)

	// End of the driven schedule; the epilogue cross-check below records
	// its reads after the end marker, where the replay's matching
	// post-Run cross-check pops them.
	if err := rec.Finish(); err != nil {
		t.Fatal(err)
	}
	report, err := auds.hr.CrossCheck()
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	out := auds.outcome(t, m.EM())
	out.report = report
	return buf.Bytes(), out, sym
}

// replaySoloRun replays the capture with the identical auditing plane and
// returns its outcome.
func replaySoloRun(t *testing.T, data []byte, sym guest.Symbols) (soloOutcome, *Replay) {
	t.Helper()
	rp, err := NewReplay(bytes.NewReader(data), ReplayConfig{
		Flight: core.NewFlightTable(1, 0, 0),
		Strict: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	hdr := rp.Header()
	auds := wireSoloAuditors(t, rp.EM(), 0, rp.Clock(0), hdr.VMs[0].VCPUs,
		rp.View(0), rp.Counter(0), sym)
	auds.gos.Start()
	if err := rp.Run(); err != nil {
		t.Fatal(err)
	}
	report, err := auds.hr.CrossCheck()
	if err != nil {
		t.Fatal(err)
	}
	out := auds.outcome(t, rp.EM())
	out.report = report
	return out, rp
}

// TestSoloReplayEquivalence pins the tentpole property on a single machine:
// record a live monitored run — all five auditors, guest reads and all —
// then replay the bytes and demand byte-identical outcomes.
func TestSoloReplayEquivalence(t *testing.T) {
	data, live, sym := liveSoloRun(t)
	replayed, rp := replaySoloRun(t, data, sym)

	if n := rp.Divergences(); n != 0 {
		t.Fatalf("replay diverged %d times", n)
	}
	// Non-vacuity: the run must exercise real detection machinery.
	if len(live.events) < 1000 {
		t.Fatalf("live run published only %d events; equivalence would be weak", len(live.events))
	}
	if !live.report.Detected() {
		t.Fatal("live cross-check found no hidden tasks; the HRKD leg is vacuous")
	}
	if live.checks == 0 {
		t.Fatal("HT-Ninja ran no checks; the sync-read leg is vacuous")
	}

	compareSolo(t, live, replayed)
}

func compareSolo(t *testing.T, live, replayed soloOutcome) {
	t.Helper()
	if len(live.events) != len(replayed.events) {
		t.Fatalf("event counts: live %d, replay %d", len(live.events), len(replayed.events))
	}
	for i := range live.events {
		if live.events[i] != replayed.events[i] {
			t.Fatalf("event %d diverged:\nlive   %+v\nreplay %+v", i, live.events[i], replayed.events[i])
		}
	}
	if !reflect.DeepEqual(live.alarms, replayed.alarms) {
		t.Fatalf("GOSHD alarms diverged:\nlive   %+v\nreplay %+v", live.alarms, replayed.alarms)
	}
	if !reflect.DeepEqual(live.dets, replayed.dets) {
		t.Fatalf("HT-Ninja detections diverged:\nlive   %+v\nreplay %+v", live.dets, replayed.dets)
	}
	if live.checks != replayed.checks {
		t.Fatalf("HT-Ninja checks: live %d, replay %d", live.checks, replayed.checks)
	}
	if !reflect.DeepEqual(live.storms, replayed.storms) {
		t.Fatalf("fleetwatch storms diverged:\nlive   %+v\nreplay %+v", live.storms, replayed.storms)
	}
	if live.fwTotal != replayed.fwTotal {
		t.Fatalf("fleetwatch totals: live %d, replay %d", live.fwTotal, replayed.fwTotal)
	}
	if !reflect.DeepEqual(live.report, replayed.report) {
		t.Fatalf("HRKD cross-check diverged:\nlive   %+v\nreplay %+v", live.report, replayed.report)
	}
	if !bytes.Equal(live.exitRing, replayed.exitRing) {
		t.Fatalf("flight exit rings diverged: live %d bytes, replay %d bytes",
			len(live.exitRing), len(replayed.exitRing))
	}
	if !bytes.Equal(live.spanRing, replayed.spanRing) {
		t.Fatalf("flight span rings diverged: live %d bytes, replay %d bytes",
			len(live.spanRing), len(replayed.spanRing))
	}
}

const (
	fleetVMs  = 8
	fleetSeed = 31
	fleetRun  = 200 * time.Millisecond
)

// fleetWorkload gives VM slot i a deterministic, slot-distinct loop; slot 2
// (and 5) nap long enough to trip the tight GOSHD threshold, so alarm state
// is part of what must replay.
func fleetWorkload(t *testing.T, m *hv.Machine, slot int) {
	t.Helper()
	specs := [][]guest.Step{
		{guest.DoSyscall(guest.SysGetPID), guest.Compute(time.Millisecond)},
		{guest.DoSyscall(guest.SysWrite, 1, 64), guest.Compute(2 * time.Millisecond)},
		{guest.Compute(time.Millisecond), guest.Sleep(100 * time.Millisecond)},
	}
	if _, err := m.Kernel().CreateProcess(&guest.ProcSpec{
		Comm: fmt.Sprintf("w%d", slot), UID: 1000,
		Program: &guest.LoopProgram{Body: specs[slot%len(specs)]},
	}, nil); err != nil {
		t.Fatal(err)
	}
}

// fleetOutcome is the per-VM and host-wide state the fleet property compares.
type fleetOutcome struct {
	events  [][]core.Event
	alarms  [][]goshd.HangAlarm
	rings   [][]byte
	spans   []byte
	storms  []fleetwatch.Storm
	fwTotal uint64
}

// wireFleetAuditors registers the fleet plane in fixed order: per-VM
// collector + GOSHD pairs, then one fleet-wide accountant.
func wireFleetAuditors(t *testing.T, em *core.Multiplexer, clocks []*vclock.Clock,
	vcpus int) ([]*capCollector, []*goshd.Detector, *fleetwatch.Accountant) {
	t.Helper()
	cols := make([]*capCollector, len(clocks))
	dets := make([]*goshd.Detector, len(clocks))
	for i := range clocks {
		cols[i] = &capCollector{vm: core.VMID(i)}
		if err := em.Register(cols[i], core.DeliverSync, 0); err != nil {
			t.Fatal(err)
		}
		det, err := goshd.New(goshd.Config{
			VM: core.VMID(i), Clock: clocks[i], VCPUs: vcpus,
			Threshold: 30 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := em.Register(det, core.DeliverAsync, 0); err != nil {
			t.Fatal(err)
		}
		dets[i] = det
	}
	fw := fleetwatch.New(fleetwatch.Config{VMName: em.VMName})
	if err := em.Register(fw, core.DeliverAsync, 1<<16); err != nil {
		t.Fatal(err)
	}
	return cols, dets, fw
}

func collectFleetOutcome(t *testing.T, em *core.Multiplexer, cols []*capCollector,
	dets []*goshd.Detector, fw *fleetwatch.Accountant) fleetOutcome {
	t.Helper()
	out := fleetOutcome{storms: fw.Storms(), fwTotal: fw.Total(), spans: spanBytes(t, em)}
	for i := range cols {
		out.events = append(out.events, cols[i].events())
		out.alarms = append(out.alarms, dets[i].Alarms())
		out.rings = append(out.rings, ringBytes(t, em, core.VMID(i)))
	}
	return out
}

// TestFleetReplayEquivalence pins the tentpole property at host scale: an
// 8-VM fleet sharing one EM records one interleaved capture, and the replay
// reproduces every VM's stream, alarms and rings plus the fleet-wide storm
// accounting from that single file.
func TestFleetReplayEquivalence(t *testing.T) {
	specs := make([]host.VMSpec, fleetVMs)
	for i := range specs {
		specs[i] = host.VMSpec{
			Name:    fmt.Sprintf("cap-fleet-vm%d", i),
			Guest:   guest.Config{Seed: fleetSeed + int64(i)},
			Monitor: true, Features: allCaptureFeatures(),
		}
	}
	h, err := host.New(host.Config{Name: "cap-host", VMs: specs})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	hdr := Header{Tick: time.Millisecond}
	clocks := make([]*vclock.Clock, fleetVMs)
	for i := 0; i < fleetVMs; i++ {
		hdr.VMs = append(hdr.VMs, VMHeader{Name: specs[i].Name, VCPUs: h.Machine(i).NumVCPUs()})
		clocks[i] = h.Machine(i).Clock()
	}
	rec, err := NewRecorder(&buf, hdr)
	if err != nil {
		t.Fatal(err)
	}
	h.SetExitTap(rec)
	cols, dets, fw := wireFleetAuditors(t, h.EM(), clocks, h.Machine(0).NumVCPUs())
	if err := h.Boot(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < fleetVMs; i++ {
		dets[i].Start()
		fleetWorkload(t, h.Machine(i), i)
	}
	h.Run(fleetRun)
	if err := rec.Finish(); err != nil {
		t.Fatal(err)
	}
	live := collectFleetOutcome(t, h.EM(), cols, dets, fw)

	// Non-vacuity: the napper VMs must alarm, and every VM must publish.
	if len(live.alarms[2]) == 0 {
		t.Fatal("napper VM raised no GOSHD alarms; the fleet equivalence is weak")
	}
	for i, evs := range live.events {
		if len(evs) == 0 {
			t.Fatalf("vm%d published no events", i)
		}
	}

	rp, err := NewReplay(bytes.NewReader(buf.Bytes()), ReplayConfig{
		MaxVMs: fleetVMs,
		Flight: core.NewFlightTable(fleetVMs, 0, 0),
		Strict: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	rclocks := make([]*vclock.Clock, fleetVMs)
	for i := range rclocks {
		rclocks[i] = rp.Clock(core.VMID(i))
	}
	rcols, rdets, rfw := wireFleetAuditors(t, rp.EM(), rclocks, rp.Header().VMs[0].VCPUs)
	for i := range rdets {
		rdets[i].Start()
	}
	if err := rp.Run(); err != nil {
		t.Fatal(err)
	}
	if n := rp.Divergences(); n != 0 {
		t.Fatalf("fleet replay diverged %d times", n)
	}
	replayed := collectFleetOutcome(t, rp.EM(), rcols, rdets, rfw)

	for i := 0; i < fleetVMs; i++ {
		if !reflect.DeepEqual(live.events[i], replayed.events[i]) {
			t.Fatalf("vm%d event stream diverged (live %d events, replay %d)",
				i, len(live.events[i]), len(replayed.events[i]))
		}
		if !reflect.DeepEqual(live.alarms[i], replayed.alarms[i]) {
			t.Fatalf("vm%d alarms diverged:\nlive   %+v\nreplay %+v",
				i, live.alarms[i], replayed.alarms[i])
		}
		if !bytes.Equal(live.rings[i], replayed.rings[i]) {
			t.Fatalf("vm%d flight ring diverged", i)
		}
	}
	if !reflect.DeepEqual(live.storms, replayed.storms) {
		t.Fatalf("storms diverged:\nlive   %+v\nreplay %+v", live.storms, replayed.storms)
	}
	if live.fwTotal != replayed.fwTotal {
		t.Fatalf("fleetwatch totals: live %d, replay %d", live.fwTotal, replayed.fwTotal)
	}
	if !bytes.Equal(live.spans, replayed.spans) {
		t.Fatal("span rings diverged")
	}
}
