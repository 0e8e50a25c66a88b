// Package flight is the cold half of the causal tracing plane. The hot half
// — the pre-allocated per-VM exit rings and the lock-free span ring — lives
// in internal/core (core.FlightTable) so the Event Multiplexer can record
// into it with zero allocations; this package handles everything that is
// allowed to be slow: serializing drained rings to a compact versioned
// binary format, raising self-contained incident bundles (Raise, then
// Bundle.Write; cmd/hypertap raises one at shutdown), and exporting
// captures as Chrome trace-event JSON for Perfetto.
//
// The package is part of the determinism contract (hypertap-vet's wallclock
// pass): everything it writes is a pure function of the recorded rings, so
// two runs of the same seed produce byte-identical artifacts.
package flight

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"hypertap/internal/core"
	"hypertap/internal/hav"
)

// Binary format: a 12-byte header followed by fixed-size little-endian
// records. The header pins magic, version and record kind so a reader can
// reject foreign or skewed files before touching a payload byte.
const (
	// Version is the current flight file format version.
	Version = 1

	kindExits = 1
	kindSpans = 2

	headerSize  = 12
	exitRecSize = 51 // Span+TimeNS+Digest+Sync+Queued+Dropped (6×8) + Type+VCPU+Reason
	spanRecSize = 20 // Span+TimeNS (2×8) + VM (2) + Phase+Actor
)

// magic identifies a HyperTap flight file.
var magic = [4]byte{'H', 'T', 'F', 'R'}

// writeHeader emits the 12-byte header for count records of the given kind.
func writeHeader(w io.Writer, kind uint8, count int) error {
	var h [headerSize]byte
	copy(h[:4], magic[:])
	h[4] = Version
	h[5] = kind
	// h[6:8] reserved, zero.
	binary.LittleEndian.PutUint32(h[8:], uint32(count))
	_, err := w.Write(h[:])
	return err
}

// readHeader validates the header and returns the record count.
func readHeader(r io.Reader, wantKind uint8) (int, error) {
	var h [headerSize]byte
	if _, err := io.ReadFull(r, h[:]); err != nil {
		return 0, fmt.Errorf("flight: short header: %w", err)
	}
	if !bytes.Equal(h[:4], magic[:]) {
		return 0, fmt.Errorf("flight: bad magic %q", h[:4])
	}
	if h[4] != Version {
		return 0, fmt.Errorf("flight: version %d, this reader handles %d", h[4], Version)
	}
	if h[5] != wantKind {
		return 0, fmt.Errorf("flight: record kind %d, want %d", h[5], wantKind)
	}
	if h[6] != 0 || h[7] != 0 {
		return 0, fmt.Errorf("flight: reserved header bytes %#x, want zero", h[6:8])
	}
	return int(binary.LittleEndian.Uint32(h[8:])), nil
}

// WriteExits serializes a drained exit ring oldest-first.
func WriteExits(w io.Writer, recs []core.FlightExit) error {
	if err := writeHeader(w, kindExits, len(recs)); err != nil {
		return err
	}
	var b [exitRecSize]byte
	for i := range recs {
		r := &recs[i]
		le := binary.LittleEndian
		le.PutUint64(b[0:], uint64(r.Span))
		le.PutUint64(b[8:], uint64(r.TimeNS))
		le.PutUint64(b[16:], r.Digest)
		le.PutUint64(b[24:], r.Sync)
		le.PutUint64(b[32:], r.Queued)
		le.PutUint64(b[40:], r.Dropped)
		b[48] = uint8(r.Type)
		b[49] = r.VCPU
		b[50] = r.Reason
		if _, err := w.Write(b[:]); err != nil {
			return err
		}
	}
	return nil
}

// ReadExits deserializes an exit-ring capture, validating each record's
// closed-enum fields: a Reason byte that is neither zero (synthetic event)
// nor a modeled hav.ExitReason marks the file as damaged, not merely skewed.
// The slice grows as records arrive, so a hostile header count allocates
// only as much as the bytes behind it.
func ReadExits(r io.Reader) ([]core.FlightExit, error) {
	n, err := readHeader(r, kindExits)
	if err != nil {
		return nil, err
	}
	var out []core.FlightExit
	var b [exitRecSize]byte
	for i := 0; i < n; i++ {
		if _, err := io.ReadFull(r, b[:]); err != nil {
			return nil, fmt.Errorf("flight: exit record %d: %w", i, err)
		}
		le := binary.LittleEndian
		out = append(out, core.FlightExit{})
		rec := &out[i]
		rec.Span = core.SpanID(le.Uint64(b[0:]))
		rec.TimeNS = int64(le.Uint64(b[8:]))
		rec.Digest = le.Uint64(b[16:])
		rec.Sync = le.Uint64(b[24:])
		rec.Queued = le.Uint64(b[32:])
		rec.Dropped = le.Uint64(b[40:])
		rec.Type = core.EventType(b[48])
		rec.VCPU = b[49]
		rec.Reason = b[50]
		if rec.Reason != 0 && !hav.ExitReason(rec.Reason).Valid() {
			return nil, fmt.Errorf("flight: exit record %d: invalid exit reason %d", i, rec.Reason)
		}
	}
	return out, nil
}

// WriteSpans serializes a span-ring snapshot oldest-first.
func WriteSpans(w io.Writer, recs []core.SpanRecord) error {
	if err := writeHeader(w, kindSpans, len(recs)); err != nil {
		return err
	}
	var b [spanRecSize]byte
	for i := range recs {
		r := &recs[i]
		le := binary.LittleEndian
		le.PutUint64(b[0:], uint64(r.Span))
		le.PutUint64(b[8:], uint64(r.TimeNS))
		le.PutUint16(b[16:], uint16(r.VM))
		b[18] = uint8(r.Phase)
		b[19] = r.Actor
		if _, err := w.Write(b[:]); err != nil {
			return err
		}
	}
	return nil
}

// ReadSpans deserializes a span-ring capture, growing the slice as records
// arrive, as ReadExits does.
func ReadSpans(r io.Reader) ([]core.SpanRecord, error) {
	n, err := readHeader(r, kindSpans)
	if err != nil {
		return nil, err
	}
	var out []core.SpanRecord
	var b [spanRecSize]byte
	for i := 0; i < n; i++ {
		if _, err := io.ReadFull(r, b[:]); err != nil {
			return nil, fmt.Errorf("flight: span record %d: %w", i, err)
		}
		le := binary.LittleEndian
		out = append(out, core.SpanRecord{})
		rec := &out[i]
		rec.Span = core.SpanID(le.Uint64(b[0:]))
		rec.TimeNS = int64(le.Uint64(b[8:]))
		rec.VM = core.VMID(le.Uint16(b[16:]))
		rec.Phase = core.FlightPhase(b[18])
		rec.Actor = b[19]
	}
	return out, nil
}
