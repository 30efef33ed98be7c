package atm

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// AAL5 reassembly and validation errors.
var (
	// ErrBadCRC reports an AAL5 CRC-32 mismatch on reassembly. ATM discards
	// the entire PDU in this case — the behaviour behind Romanow & Floyd's
	// observation (paper §7.8) that one lost cell costs a whole segment.
	ErrBadCRC = errors.New("atm: AAL5 CRC-32 mismatch")
	// ErrBadLength reports an AAL5 length field inconsistent with the
	// number of cells received (typically a lost cell).
	ErrBadLength = errors.New("atm: AAL5 length inconsistent with cells received")
)

// Segment builds the AAL5 PDU for payload and splits it into cells on vci.
// The last cell carries the pad bytes, the 8-byte CPCS trailer (UU=0,
// CPI=0, 16-bit length, CRC-32) and the end-of-PDU mark. Segment panics if
// payload exceeds MaxPDU; callers are expected to enforce their MTU first.
func Segment(vci VCI, payload []byte) []Cell {
	return SegmentAppend(nil, vci, payload)
}

// SegmentAppend is Segment writing into dst, which it extends and returns
// (like append). Cell payloads are assembled in place — no intermediate PDU
// staging buffer — so a caller that recycles dst across messages segments
// with zero allocations in steady state.
//
//unetlint:hotpath AAL5 segmentation; runs on every message send
func SegmentAppend(dst []Cell, vci VCI, payload []byte) []Cell {
	if len(payload) > MaxPDU {
		panic(fmt.Sprintf("atm: Segment called with %d-byte payload", len(payload)))
	}
	ncells := CellsFor(len(payload))
	if ncells == 0 {
		ncells = 1 // a zero-byte PDU still occupies one cell (trailer only)
	}
	base := len(dst)
	for cap(dst)-base < ncells {
		dst = append(dst[:cap(dst)], Cell{})
	}
	dst = dst[:base+ncells]

	rest := payload
	for i := 0; i < ncells; i++ {
		c := &dst[base+i]
		c.VCI = vci
		c.EOP = false
		c.Direct = false
		n := copy(c.Payload[:], rest)
		rest = rest[n:]
		clear(c.Payload[n:]) // zero padding (and trailer space, filled below)
	}
	last := &dst[base+ncells-1]
	last.EOP = true
	binary.BigEndian.PutUint16(last.Payload[PayloadSize-6:], uint16(len(payload)))
	// The CRC covers the payload, the padding and the trailer up to the CRC
	// field. The payload is contiguous in the caller's buffer, so it is
	// folded in one call — long enough for hash/crc32's vector kernels, which
	// a 48-byte cell is not — and what follows it lies in the last cell, or
	// the last two when the trailer spilled into a cell of its own.
	crc := CRC32Update(0xFFFFFFFF, payload)
	for i := len(payload) / PayloadSize; i < ncells; i++ {
		tail := dst[base+i].Payload[max(len(payload)-i*PayloadSize, 0):]
		if i == ncells-1 {
			tail = tail[:len(tail)-4]
		}
		crc = CRC32Update(crc, tail)
	}
	binary.BigEndian.PutUint32(last.Payload[PayloadSize-4:], crc^0xFFFFFFFF)
	return dst
}

// BufSource provides and recycles reassembly buffers, letting many
// reassemblers share one arena of slabs instead of each growing a private
// buffer to its high-water mark. Get returns a zero-length slab (of
// whatever capacity the arena has on hand — the reassembler grows it by
// appending); Put takes a zero-length slab back.
type BufSource interface {
	Get() []byte
	Put(buf []byte)
}

// Reassembler accumulates the cells of one AAL5 PDU on a single VCI.
// The zero value is ready to use. The caller (a NIC model) keeps one
// Reassembler per receive VCI, mirroring the per-VCI reassembly state the
// SBA-200 firmware maintains.
type Reassembler struct {
	buf   []byte
	cells int
	src   BufSource
}

// Pending reports how many cells of an incomplete PDU are buffered.
func (r *Reassembler) Pending() int { return r.cells }

// SetSource makes the reassembler draw its buffer from src at the start of
// each PDU — and, crucially, changes the ownership contract of Add: on a
// completed PDU the backing slab detaches and transfers to the caller, who
// returns it to the source (typically after delivering or scattering the
// payload) with Put(payload[:0]). Call SetSource only while no PDU is
// pending.
func (r *Reassembler) SetSource(s BufSource) { r.src = s }

// Reset discards any partial PDU, returning a pooled buffer to its source.
func (r *Reassembler) Reset() {
	if r.src != nil {
		if r.buf != nil {
			r.src.Put(r.buf[:0])
		}
		r.buf = nil
	} else {
		r.buf = r.buf[:0]
	}
	r.cells = 0
}

// Add feeds the next cell. When c completes a PDU (c.EOP), Add validates
// the trailer and returns the payload; otherwise it returns (nil, nil).
// On validation failure the partial state is discarded and an error
// describing the corruption is returned.
//
// Without a buffer source, the returned payload aliases the reassembler's
// internal buffer and is valid only until the next Add or Reset on this
// reassembler; callers that retain it (rather than scattering it into
// their own buffers) must copy. With SetSource, the payload's backing slab
// is the caller's to keep — and to hand back to the source when consumed —
// so no copy is ever needed.
//
//unetlint:hotpath AAL5 reassembly; runs on every arriving cell
func (r *Reassembler) Add(c Cell) ([]byte, error) {
	if r.buf == nil && r.src != nil {
		r.buf = r.src.Get()
	}
	r.buf = append(r.buf, c.Payload[:]...)
	r.cells++
	if !c.EOP {
		return nil, nil
	}
	pdu := r.buf
	n := int(binary.BigEndian.Uint16(pdu[len(pdu)-4-2:]))
	if CellsFor(n) != r.cells && !(n == 0 && r.cells == 1) {
		r.Reset()
		//unetlint:allow hotpathalloc a PDU damaged on the wire is the fault path, not the steady state: the error says what the trailer claimed
		return nil, fmt.Errorf("%w: length=%d cells=%d", ErrBadLength, n, r.cells)
	}
	want := binary.BigEndian.Uint32(pdu[len(pdu)-4:])
	if got := CRC32(pdu[:len(pdu)-4]); got != want {
		r.Reset()
		//unetlint:allow hotpathalloc a PDU damaged on the wire is the fault path, not the steady state: the error carries both checksums
		return nil, fmt.Errorf("%w: got %08x want %08x", ErrBadCRC, got, want)
	}
	if r.src != nil {
		// Ownership of the slab moves to the caller; keep the full capacity
		// reachable (no three-index cap) so Put recovers the whole slab.
		r.buf = nil
		r.cells = 0
		return pdu[:n], nil
	}
	r.Reset()
	return pdu[:n:n], nil
}
