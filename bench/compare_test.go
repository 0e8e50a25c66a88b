package main

import "testing"

func TestCompareMetric(t *testing.T) {
	throughput := metricSpec{Name: "exits_per_s", Unit: "1/s", Better: "higher", Bound: 0.1}
	setup := metricSpec{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25}
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	for _, tc := range []struct {
		name   string
		m      metricSpec
		parent []float64
		change []float64
		want   verdict
	}{
		{
			name: "improvement: every pair won by more than the parent's spread",
			m:    throughput, parent: parent,
			change: []float64{110, 111, 109, 110, 112, 108, 110, 111, 109, 110},
			want:   verdictGain,
		},
		{
			name: "small win on 7 of 10 pairs is no gain but within the bound",
			m:    throughput, parent: parent,
			change: []float64{101, 102, 100, 99, 103, 99, 99, 102, 98, 101},
			want:   verdictOK,
		},
		{
			name: "regression beyond the bound",
			m:    throughput, parent: parent,
			change: []float64{85, 86, 84, 85, 87, 83, 85, 86, 84, 85},
			want:   verdictRegression,
		},
		{
			name: "lower-is-better regression",
			m:    setup, parent: []float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 1.01},
			change: []float64{1.4, 1.4, 1.4, 1.4, 1.4, 1.4, 1.4, 1.4, 1.4, 1.41},
			want:   verdictRegression,
		},
		{
			name: "unresolved: runs spread wider than the bound and overlap",
			m:    throughput, parent: []float64{100, 70, 130, 90, 110, 60, 140, 100, 80, 120},
			change: []float64{95, 65, 125, 85, 105, 55, 135, 95, 75, 115},
			want:   verdictUnresolved,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := compareMetric(tc.m, tc.parent, tc.change)
			if got.verdict != tc.want {
				t.Fatalf("verdict %s, want %s (wins %d/%d, delta %+.3f)", got.verdict, tc.want, got.wins, got.n, got.delta)
			}
		})
	}
}
