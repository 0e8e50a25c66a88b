package experiment

import (
	"reflect"
	"testing"
	"time"

	"hypertap/internal/telemetry"
)

// clusterCampaignConfig keeps the campaign equivalence test fast while still
// crossing every layer: 3 clusters × 2 hosts × 2 VMs.
func clusterCampaignConfig(parallel int) ClusterConfig {
	return ClusterConfig{
		Clusters:        3,
		HostsPerCluster: 2,
		VMsPerHost:      2,
		Duration:        200 * time.Millisecond,
		Threshold:       30 * time.Millisecond,
		Seed:            77,
		Parallel:        parallel,
	}
}

// TestClusterCampaignParallelMatchesSerial pins the campaign determinism
// contract one level up from the fleet campaign: the unit is a whole cluster
// (hosts under one shared clock), and running units serially or across
// workers yields byte-identical reports.
func TestClusterCampaignParallelMatchesSerial(t *testing.T) {
	serial, err := RunClusterCampaign(clusterCampaignConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunClusterCampaign(clusterCampaignConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("parallel cluster campaign diverged from serial:\nserial:   %+v\nparallel: %+v", serial, parallel)
	}
	if serial.TotalEvents == 0 {
		t.Fatal("campaign produced no events; the equivalence is vacuous")
	}
	if serial.TotalAlarms == 0 {
		t.Fatal("campaign raised no GOSHD alarms; the napper slot is not engaging")
	}
	for _, ur := range serial.Clusters {
		if len(ur.Hosts) != 2 || len(ur.Hosts[0].VMs) != 2 || len(ur.Hosts[1].VMs) != 2 {
			t.Fatalf("unit %s shape = %+v, want 2 hosts x 2 VMs", ur.Cluster, ur.Hosts)
		}
	}
}

// TestClusterCampaignTelemetryRollsUp checks the campaign's fleet rollup:
// per-host series from every unit land in the live registry under their
// {host=cU-hI} labels.
func TestClusterCampaignTelemetryRollsUp(t *testing.T) {
	reg := telemetry.NewRegistry()
	cfg := clusterCampaignConfig(2)
	cfg.Telemetry = reg
	res, err := RunClusterCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var total uint64
	for _, cs := range reg.Snapshot().Counters {
		if cs.Name != "hypertap_events_published_total" {
			continue
		}
		// Count only the host-total series (host label, no vm label).
		hosted, perVM := false, false
		for _, l := range cs.Labels {
			hosted = hosted || l.Key == "host"
			perVM = perVM || l.Key == "vm"
		}
		if hosted && !perVM {
			total += cs.Value
		}
	}
	if total != res.TotalEvents {
		t.Fatalf("rolled-up published total = %d, want %d", total, res.TotalEvents)
	}
}
