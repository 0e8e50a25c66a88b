package cluster

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"

	"hypertap/internal/capture"
	"hypertap/internal/core"
)

// armClusterCapture taps every host of c with a capture recorder whose header
// carries the host's name and its own VMs at their cluster-global IDs.
func armClusterCapture(t *testing.T, c *Cluster) ([]*bytes.Buffer, []*capture.Recorder) {
	t.Helper()
	bufs := make([]*bytes.Buffer, c.NumHosts())
	recs := make([]*capture.Recorder, c.NumHosts())
	for i := 0; i < c.NumHosts(); i++ {
		h := c.Host(i)
		var table []capture.VMHeader
		for _, m := range h.Machines() {
			table = append(table, capture.VMHeader{
				ID: m.VMID(), Name: m.Name(), VCPUs: m.NumVCPUs(),
			})
		}
		bufs[i] = &bytes.Buffer{}
		rec, err := capture.NewRecorder(bufs[i], capture.Header{
			Host: h.Name(), Tick: time.Millisecond, VMs: table,
		})
		if err != nil {
			t.Fatal(err)
		}
		h.SetExitTap(rec)
		recs[i] = rec
	}
	return bufs, recs
}

// vmEventCount decodes a capture stream and counts the event records tagged
// with VMID vm.
func vmEventCount(t *testing.T, stream []byte, vm core.VMID) uint64 {
	t.Helper()
	rd, err := capture.NewReader(bytes.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	var (
		rec capture.Record
		n   uint64
	)
	for rd.Next(&rec) == nil {
		switch capture.KindName(rec.Kind) {
		case "event":
			if rec.Event.VM == vm {
				n++
			}
		case "end":
			return n
		}
	}
	return n
}

// TestClusterCaptureStreams records .htcs from a live cluster whose hosts
// carry uneven fleets, so the VMID ranges are sparse (stride 2: h0 owns 0–1,
// h1 owns 2 and leaves 3 empty, h2 owns 4–5). Each host's stream carries the
// v2 header — its host name and its VMs at their cluster IDs — and replays on
// its own with no divergence, republishing exactly the events it recorded
// for every VM.
func TestClusterCaptureStreams(t *testing.T) {
	fleets := []int{2, 1, 2}
	specs := make([]HostSpec, len(fleets))
	for i, n := range fleets {
		specs[i] = HostSpec{Name: fmt.Sprintf("h%d", i)}
		for j := 0; j < n; j++ {
			specs[i].VMs = append(specs[i].VMs, smallSpec(fmt.Sprintf("h%d-vm%d", i, j), int64(301+10*i+j)))
		}
	}
	c, err := New(Config{Hosts: specs})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Boot(); err != nil {
		t.Fatal(err)
	}
	g := 0
	for i := 0; i < c.NumHosts(); i++ {
		for _, m := range c.Host(i).Machines() {
			clusterWorkload(t, m, g)
			g++
		}
	}
	// Boot publishes before the taps are armed; the streams hold the rest.
	atArm := make(map[core.VMID]uint64)
	for i := 0; i < c.NumHosts(); i++ {
		for _, m := range c.Host(i).Machines() {
			atArm[m.VMID()] = c.Host(i).EM().PublishedVM(m.VMID())
		}
	}
	bufs, recs := armClusterCapture(t, c)
	c.Run(150 * time.Millisecond)

	wantIDs := [][]core.VMID{{0, 1}, {2}, {4, 5}}
	for i, h := range []string{"h0", "h1", "h2"} {
		if err := recs[i].Finish(); err != nil {
			t.Fatal(err)
		}
		stream := bufs[i].Bytes()
		rd, err := capture.NewReader(bytes.NewReader(stream))
		if err != nil {
			t.Fatal(err)
		}
		hdr := rd.Header()
		if hdr.Host != h {
			t.Fatalf("stream %d header host = %q, want %q", i, hdr.Host, h)
		}
		var gotIDs []core.VMID
		for _, vm := range hdr.VMs {
			gotIDs = append(gotIDs, vm.ID)
		}
		if !reflect.DeepEqual(gotIDs, wantIDs[i]) {
			t.Fatalf("stream %d header IDs = %v, want %v", i, gotIDs, wantIDs[i])
		}

		rp, err := capture.NewReplay(bytes.NewReader(stream), capture.ReplayConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if err := rp.Run(); err != nil {
			t.Fatal(err)
		}
		if rp.Divergences() != 0 {
			t.Fatalf("%s stream replay counted %d divergences", h, rp.Divergences())
		}
		for _, m := range c.Host(i).Machines() {
			id := m.VMID()
			recorded := vmEventCount(t, stream, id)
			if recorded == 0 {
				t.Fatalf("%s recorded no events for %s; the check is vacuous", h, m.Name())
			}
			if pub := rp.EM().PublishedVM(id); pub != recorded {
				t.Fatalf("%s replay published %d events for %s, stream records %d", h, pub, m.Name(), recorded)
			}
			if live := c.Host(i).EM().PublishedVM(id) - atArm[id]; live != recorded {
				t.Fatalf("%s live published %d events for %s while recording, stream records %d", h, live, m.Name(), recorded)
			}
			if name, ok := rp.EM().VMName(id); !ok || name != m.Name() {
				t.Fatalf("replay EM VM %d = %q/%v, want %s", id, name, ok, m.Name())
			}
		}
	}
}
