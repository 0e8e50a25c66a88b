package capture

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"testing"
	"time"
)

// TestV1HeaderByteCompat pins the compatibility contract the v2 format keeps
// with earlier captures: a header without a host name is written
// byte-for-byte as the v1 layout, so old goldens, corpora and tooling stay
// valid.
func TestV1HeaderByteCompat(t *testing.T) {
	hdr := Header{
		Tick: 2 * time.Millisecond,
		VMs: []VMHeader{
			{Name: "vm-a", VCPUs: 2},
			{Name: "vm-b", VCPUs: 1},
		},
	}
	var buf bytes.Buffer
	if _, err := NewRecorder(&buf, hdr); err != nil {
		t.Fatal(err)
	}
	want := []byte{'H', 'T', 'C', 'S', VersionSolo, 0}
	want = binary.LittleEndian.AppendUint64(want, uint64(2*time.Millisecond))
	want = binary.LittleEndian.AppendUint16(want, 2)
	want = append(want, 4)
	want = append(want, "vm-a"...)
	want = binary.LittleEndian.AppendUint16(want, 2)
	want = append(want, 4)
	want = append(want, "vm-b"...)
	want = binary.LittleEndian.AppendUint16(want, 1)
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("v1 header bytes changed:\n got %x\nwant %x", buf.Bytes(), want)
	}

	rd, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	got := rd.Header()
	if got.Host != "" {
		t.Fatalf("v1 header host = %q, want empty", got.Host)
	}

	// The reader reports the wire version, not the newest one it accepts —
	// tooling (hypertap-capture info) surfaces this to the user.
	if rd.Version() != VersionSolo {
		t.Fatalf("solo stream Version() = %d, want %d", rd.Version(), VersionSolo)
	}
	v2 := GenerateHosted(1, 2, 1, 16, time.Millisecond, "h0")
	rd2, err := NewReader(bytes.NewReader(v2))
	if err != nil {
		t.Fatal(err)
	}
	if rd2.Version() != Version {
		t.Fatalf("hosted stream Version() = %d, want %d", rd2.Version(), Version)
	}
}

// TestV2HostOnlyAssignsDenseIDs pins the v2 header bytes: a host name
// selects v2 (v1 cannot carry the host), and the ID column holds each
// VM's slot index.
func TestV2HostOnlyAssignsDenseIDs(t *testing.T) {
	hdr := Header{
		Host: "host0",
		Tick: time.Millisecond,
		VMs: []VMHeader{
			{Name: "vm-a", VCPUs: 1},
			{Name: "vm-b", VCPUs: 1},
		},
	}
	var buf bytes.Buffer
	if _, err := NewRecorder(&buf, hdr); err != nil {
		t.Fatal(err)
	}
	want := []byte{'H', 'T', 'C', 'S', Version, 0}
	want = binary.LittleEndian.AppendUint64(want, uint64(time.Millisecond))
	want = append(want, 5)
	want = append(want, "host0"...)
	want = binary.LittleEndian.AppendUint16(want, 2)
	for i, vm := range hdr.VMs {
		want = binary.LittleEndian.AppendUint16(want, uint16(i))
		want = append(want, byte(len(vm.Name)))
		want = append(want, vm.Name...)
		want = binary.LittleEndian.AppendUint16(want, 1)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("v2 header bytes changed:\n got %x\nwant %x", buf.Bytes(), want)
	}
	rd, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	got := rd.Header()
	if got.Host != "host0" {
		t.Fatalf("decoded host = %q, want host0", got.Host)
	}
	if len(got.VMs) != 2 || got.VMs[0].Name != "vm-a" || got.VMs[1].Name != "vm-b" {
		t.Fatalf("decoded VM table = %+v, want vm-a, vm-b", got.VMs)
	}
}

// TestV2HeaderRejections pins the hostile-header gates new in v2.
func TestV2HeaderRejections(t *testing.T) {
	var buf bytes.Buffer
	if _, err := NewRecorder(&buf, Header{
		Host: strings.Repeat("h", 256),
		VMs:  []VMHeader{{Name: "x", VCPUs: 1}},
	}); err == nil {
		t.Fatal("oversized host name accepted")
	}

	// Reader side: the wire ID column must be the slot index. Any other
	// table is rejected as a format the reader does not understand.
	mk := func(ids []uint16) []byte {
		h := []byte{'H', 'T', 'C', 'S', Version, 0}
		h = binary.LittleEndian.AppendUint64(h, uint64(time.Millisecond))
		h = append(h, 2)
		h = append(h, "hx"...)
		h = binary.LittleEndian.AppendUint16(h, uint16(len(ids)))
		for i, id := range ids {
			h = binary.LittleEndian.AppendUint16(h, id)
			h = append(h, 1, byte('a'+i))
			h = binary.LittleEndian.AppendUint16(h, 1)
		}
		return append(h, recEnd)
	}
	for _, ids := range [][]uint16{{3, 3}, {3, 9}, {0, 2}} {
		if _, err := NewReader(bytes.NewReader(mk(ids))); !errors.Is(err, ErrUnsupportedVersion) {
			t.Fatalf("reader on wire VMIDs %v: err = %v, want ErrUnsupportedVersion", ids, err)
		}
	}
	if _, err := NewReader(bytes.NewReader(mk([]uint16{0, 1}))); err != nil {
		t.Fatalf("reader rejected a slot-indexed table: %v", err)
	}
}
