# HyperTap reproduction — build and verification entry points.
#
# `make check` is the tier-1 gate: vet, the hypertap-vet invariant
# analyzer, formatting, and the race-checked suites for the packages on
# the event hot path (core, telemetry) plus the experiment harnesses,
# hypervisor, auditors and the two CLIs that raise and read incident
# bundles (-short keeps the race leg fast).

GO ?= go

.PHONY: all build test check fmt vet vet-invariants race equivalence bench-smoke experiments fuzz

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

check: vet vet-invariants fmt race equivalence bench-smoke

vet:
	$(GO) vet ./...

# hypertap-vet mechanically enforces the determinism, isolation, and
# hot-path invariants of DESIGN.md §7–§9 (see cmd/hypertap-vet). Any
# finding fails the gate; every accepted exception is an inline
# //hypertap:allow at the violation site with its reason, and an allow
# that suppresses nothing is itself a finding.
vet-invariants:
	$(GO) run ./cmd/hypertap-vet ./...

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

race:
	$(GO) test -race -short ./internal/core/... ./internal/telemetry/... ./internal/experiment/... ./internal/hv/... ./internal/host/... ./internal/capture/... ./internal/vclock/... ./internal/flight/... ./internal/guest/... ./internal/workload/... ./internal/auditors/... ./cmd/hypertap/... ./cmd/hypertap-capture/...

# The equivalence suites: serial≡parallel for the sharded campaign engine,
# N-VM-host ≡ N-isolated-VMs for the host fleet plane, capture→replay ≡ live
# for the exit-stream record/replay plane (solo and 8-VM fleet). GOMAXPROCS=4
# forces real scheduling interleavings even on small runners, and -race
# turns any unserialized progress/telemetry access into a failure. The
# replay gates run once more at GOMAXPROCS=1, with the decoder pipeline's
# lifetime test: replay decodes on a goroutine of its own, and one P is the
# schedule where decoder and auditors only ever take turns.
equivalence:
	GOMAXPROCS=4 $(GO) test -race -short -count=1 -run 'TestParallelMatchesSerial|TestShowdownUnitIsolation' ./internal/experiment ./internal/experiment/runner
	GOMAXPROCS=4 $(GO) test -race -short -count=1 -run 'TestFleetEquivalence|TestFleetSharedRHC' ./internal/host
	GOMAXPROCS=4 $(GO) test -race -short -count=1 -run 'TestSoloReplayEquivalence|TestFleetReplayEquivalence|TestReplayDeterminism' ./internal/capture
	GOMAXPROCS=1 $(GO) test -race -short -count=1 -run 'TestSoloReplayEquivalence|TestFleetReplayEquivalence|TestReplayDeterminism|TestReplayPipelineLifetime' ./internal/capture

# Compile and run every benchmark exactly once, so a broken benchmark is a
# gate failure rather than a surprise at measurement time.
bench-smoke:
	$(GO) test -run xxx -bench . -benchtime 1x ./...

# Regenerate every paper result with the command EXPERIMENTS.md names for
# it, into a temporary directory, and diff each committed results/*.txt
# against its regenerated copy: any change to virtual behaviour at full
# campaign scale fails here. About 75 s on a 2-CPU host, most of it the
# 5,984-injection GOSHD campaign, so it runs as its own CI job rather than
# inside `make check`.
experiments:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) run ./cmd/hypertap-events > $$tmp/tablei_events.txt; \
	$(GO) run ./cmd/goshd-campaign -scale full > $$tmp/fig4_fig5_goshd.txt; \
	$(GO) run ./cmd/hrkd-eval > $$tmp/tableii_hrkd.txt; \
	$(GO) run ./cmd/ninja-eval > $$tmp/ninja.txt; \
	$(GO) run ./cmd/ninja-eval -sidechannel=false -attacks=false -showdown=false -sweep > $$tmp/ninja_sweeps.txt; \
	$(GO) run ./cmd/perf-eval -scale 2 -ablation > $$tmp/fig7_perf.txt; \
	status=0; for f in results/*.txt; do \
		diff -u "$$f" "$$tmp/$${f#results/}" || status=1; \
	done; \
	if [ $$status -eq 0 ]; then echo "experiments: every results/*.txt regenerates byte for byte"; fi; \
	exit $$status

# Coverage-guided fuzzing of the replay plane: mutated captures through the
# full auditor wiring, hunting panics, parser over-acceptance, and
# determinism violations (each input replays twice and must match).
# -fuzzminimizetime is bounded because minimization of each new interesting
# input otherwise dominates the whole budget on small runners. Crashers land
# in internal/capture/testdata/fuzz/; minimized ones get promoted into
# internal/capture/testdata/corpus/ as permanent regressions.
# FuzzEventDecode then checks the replay's chunk decoder against
# Reader.Next: same events, records and errors for any record bytes.
# FuzzMemory checks demand-paged guest memory against a flat []byte
# model: same bytes and same errors for any accessor sequence.
# FuzzLoadBundle loads hostile incident bundles: no panic, allocation
# bounded by the bytes read, and every decoded ring re-encodes exactly.
fuzz:
	$(GO) test ./internal/capture/ -run '^$$' -fuzz FuzzReplay -fuzztime 60s -fuzzminimizetime 5s
	$(GO) test ./internal/capture/ -run '^$$' -fuzz FuzzEventDecode -fuzztime 30s -fuzzminimizetime 5s
	$(GO) test ./internal/gmem/ -run '^$$' -fuzz FuzzMemory -fuzztime 30s -fuzzminimizetime 5s
	$(GO) test ./internal/flight/ -run '^$$' -fuzz FuzzLoadBundle -fuzztime 30s -fuzzminimizetime 5s
