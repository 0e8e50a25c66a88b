package experiment

import (
	"fmt"
	"strings"
	"time"

	"hypertap/internal/auditors/hrkd"
	"hypertap/internal/core"
	"hypertap/internal/core/intercept"
	"hypertap/internal/experiment/runner"
	"hypertap/internal/guest"
	"hypertap/internal/hv"
	"hypertap/internal/malware"
	"hypertap/internal/vmi"
)

// HRKDRow is one Table II row: a real-world rootkit evaluated against HRKD.
type HRKDRow struct {
	// Rootkit and TargetOS reproduce the table's identity columns.
	Rootkit  string `json:"rootkit"`
	TargetOS string `json:"target_os"`
	// Techniques is the hiding-technique column.
	Techniques string `json:"techniques"`
	// HiddenFromPS reports whether the in-guest process listing (Task
	// Manager / ps) lost sight of the malware.
	HiddenFromPS bool `json:"hidden_from_ps"`
	// HiddenFromVMI reports whether the hypervisor-side VMI list walk lost
	// sight of it (DKOM-family rootkits).
	HiddenFromVMI bool `json:"hidden_from_vmi"`
	// Detected reports HRKD's cross-view verdict.
	Detected bool `json:"detected"`
	// HiddenPIDs are the pids HRKD surfaced.
	HiddenPIDs []int `json:"hidden_pids,omitempty"`
}

// HRKDResult is the Table II reproduction.
type HRKDResult struct {
	Rows []HRKDRow
}

// AllDetected reports the paper's headline: every rootkit detected.
func (r *HRKDResult) AllDetected() bool {
	if len(r.Rows) == 0 {
		return false
	}
	for _, row := range r.Rows {
		if !row.Detected {
			return false
		}
	}
	return true
}

// HRKDConfig parameterizes the Table II matrix.
type HRKDConfig struct {
	// Seed drives guest jitter; rootkit i runs at seed+i.
	Seed int64
	// Parallel is the number of rootkit evaluations run concurrently
	// (each in its own VM). 0 selects GOMAXPROCS.
	Parallel int
	// Progress, when set, is called after each rootkit completes.
	Progress func(done, total int)
}

// RunHRKDMatrix evaluates every catalog rootkit (Table II): boot a guest of
// the rootkit's OS profile, run hidden malware, install the rootkit, and
// cross-validate HRKD's architectural views against the in-guest and VMI
// listings. One work unit per rootkit.
func RunHRKDMatrix(cfg HRKDConfig) (*HRKDResult, error) {
	catalog := malware.Catalog()
	campaign := runner.Campaign[HRKDRow]{
		Units:    len(catalog),
		Parallel: cfg.Parallel,
		Seed:     cfg.Seed,
		Progress: cfg.Progress,
		Run: func(ctx *runner.Ctx) (HRKDRow, error) {
			entry := catalog[ctx.Index]
			row, err := RunHRKDOnce(entry, ctx.Seed)
			if err != nil {
				return HRKDRow{}, fmt.Errorf("experiment: HRKD vs %s: %w", entry.Name, err)
			}
			return *row, nil
		},
	}
	res, err := campaign.Execute()
	if err != nil {
		return nil, err
	}
	return &HRKDResult{Rows: res.Units}, nil
}

// RunHRKDOnce evaluates one rootkit.
func RunHRKDOnce(entry malware.CatalogEntry, seed int64) (*HRKDRow, error) {
	m, err := hv.New(hv.Config{
		VCPUs:    2,
		MemBytes: 64 << 20,
		Guest:    guest.Config{Profile: entry.Profile, Seed: seed},
	})
	if err != nil {
		return nil, err
	}
	engine, err := m.EnableMonitoring(intercept.Features{
		ProcessSwitch: true,
		ThreadSwitch:  true,
		TSSIntegrity:  true,
	})
	if err != nil {
		return nil, err
	}
	if err := m.Boot(); err != nil {
		return nil, err
	}
	intro := vmi.New(m, m.Kernel().Symbols())
	det, err := hrkd.New(hrkd.Config{View: m, Counter: engine, Intro: intro})
	if err != nil {
		return nil, err
	}
	if err := m.EM().Register(det, core.DeliverAsync, 0); err != nil {
		return nil, err
	}

	// The malware: two processes that keep using the CPU, which is all
	// HRKD needs to see them.
	for i := 0; i < 2; i++ {
		if _, err := m.Kernel().CreateProcess(&guest.ProcSpec{
			Comm: "malware", UID: 0,
			Program: &guest.LoopProgram{Body: []guest.Step{
				guest.Compute(time.Millisecond),
				guest.DoSyscall(guest.SysWrite, 1, 128),
				guest.Sleep(3 * time.Millisecond),
			}},
		}, nil); err != nil {
			return nil, err
		}
	}
	m.Run(50 * time.Millisecond)

	// Root loads the rootkit, hiding every "malware" process.
	rk := entry.Build("malware")
	if _, err := m.Kernel().CreateProcess(&guest.ProcSpec{
		Comm: "dropper", UID: 0,
		Program: guest.NewStepList(guest.LoadModule(rk)),
	}, nil); err != nil {
		return nil, err
	}
	m.Run(100 * time.Millisecond)

	// View 1: the in-guest listing (what Task Manager / ps shows).
	psView, err := guestPS(m)
	if err != nil {
		return nil, err
	}
	// View 2: the hypervisor VMI walk.
	vmiView, err := intro.ListProcesses()
	if err != nil {
		return nil, err
	}

	row := &HRKDRow{
		Rootkit:       entry.Name,
		TargetOS:      entry.TargetOS,
		Techniques:    entry.Techniques.String(),
		HiddenFromPS:  !viewShows(psView, "malware"),
		HiddenFromVMI: !viewShows(vmiView, "malware"),
	}

	// HRKD cross-validates its architectural (CPU-derived) view against
	// the weaker of the untrusted views — the in-guest one, as the paper's
	// Task Manager comparison does.
	report := det.CrossCheckAgainst(psView)
	row.Detected = report.Detected()
	for _, f := range report.Hidden {
		row.HiddenPIDs = append(row.HiddenPIDs, f.PID)
	}
	return row, nil
}

// guestPS runs an in-guest "ps": a process calling listprocs through the
// (possibly hijacked) syscall table.
func guestPS(m *hv.Machine) ([]guest.ProcEntry, error) {
	var view []guest.ProcEntry
	got := false
	prog := guest.ProgramFunc(func(ctx *guest.ProgContext, st *guest.Step) {
		if ctx.StepIndex == 0 {
			st.SetSyscall(guest.SysListProcs)
			return
		}
		if !got && ctx.LastResult != nil {
			if entries, ok := ctx.LastResult.Data.([]guest.ProcEntry); ok {
				view = entries
				got = true
			}
		}
		st.SetExit(0)
	})
	if _, err := m.Kernel().CreateProcess(&guest.ProcSpec{Comm: "ps", UID: 0, Program: prog}, nil); err != nil {
		return nil, err
	}
	m.RunUntil(200*time.Millisecond, func() bool { return got })
	if !got {
		return nil, fmt.Errorf("experiment: in-guest ps never completed")
	}
	return view, nil
}

func viewShows(view []guest.ProcEntry, comm string) bool {
	for _, e := range view {
		if e.Comm == comm && e.State != guest.StateZombie {
			return true
		}
	}
	return false
}

// FormatHRKD renders Table II.
func FormatHRKD(r *HRKDResult) string {
	var b strings.Builder
	b.WriteString("Table II: real-world rootkits evaluated with HRKD\n")
	fmt.Fprintf(&b, "%-16s %-18s %-28s %-10s %-10s %-9s\n",
		"Rootkit", "Target OS", "Hiding Technique(s)", "hidden:ps", "hidden:vmi", "detected")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-16s %-18s %-28s %-10v %-10v %-9v\n",
			row.Rootkit, row.TargetOS, row.Techniques,
			row.HiddenFromPS, row.HiddenFromVMI, row.Detected)
	}
	if r.AllDetected() {
		b.WriteString("\nall rootkits detected (matches the paper)\n")
	} else {
		b.WriteString("\nWARNING: some rootkits were NOT detected\n")
	}
	return b.String()
}
