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
// (like append): the Segmenter over one part.
func SegmentAppend(dst []Cell, vci VCI, payload []byte) []Cell {
	var s Segmenter
	n := s.Start(vci, false, payload, nil, 0, 0)
	for cap(dst)-len(dst) < n {
		dst = append(dst[:cap(dst)], Cell{})[:len(dst)]
	}
	s.Fill(dst[len(dst) : len(dst)+n])
	return dst[:len(dst)+n]
}

// Segmenter fills an AAL5 PDU's cells from its parts, some at a time, with no
// staging buffer. It folds the CRC over each part or piece — long enough for
// hash/crc32's vector kernels, which a cell is not — then pad and trailer.
type Segmenter struct {
	cur        []byte // the rest of the part being copied, already in crc
	src        interface{ Piece(off, n int) []byte }
	off, n     int // the range of src not yet read
	vci        VCI
	direct     bool
	size, left int // payload bytes; cells not yet filled
	crc        uint32
}

// Start begins, in place, the PDU of body then n bytes of src from off on
// vci, its cells marked Direct or not, and returns its cell count. Src.Piece
// returns the bytes from off in place, at least one and at most n. Start
// panics past MaxPDU; callers enforce their MTU first.
func (s *Segmenter) Start(vci VCI, direct bool, body []byte, src interface{ Piece(off, n int) []byte }, off, n int) int {
	if len(body)+n > MaxPDU {
		panic(fmt.Sprintf("atm: Segment called with %d-byte payload", len(body)+n))
	}
	// A zero-byte PDU still occupies one cell (trailer only).
	*s = Segmenter{cur: body, src: src, off: off, n: n, vci: vci, direct: direct,
		size: len(body) + n, left: max(CellsFor(len(body)+n), 1), crc: CRC32Update(0xFFFFFFFF, body)}
	return s.left
}

// next returns the range's next piece, folded into the CRC.
func (s *Segmenter) next() []byte {
	b := s.src.Piece(s.off, s.n)
	s.off, s.n = s.off+len(b), s.n-len(b)
	s.crc = CRC32Update(s.crc, b)
	return b
}

// Fill writes the PDU's next len(cells) cells over whatever they held and
// returns how many are left.
//
//unetlint:hotpath AAL5 segmentation; runs on every batch of cells a message is sent in
func (s *Segmenter) Fill(cells []Cell) int {
	cur := s.cur
	for i := range cells {
		c := &cells[i]
		c.VCI, c.EOP, c.Direct = s.vci, false, s.direct
		k := 0
		if len(cur) >= PayloadSize { // a whole cell's worth: one fixed-size move
			c.Payload, cur, k = [PayloadSize]byte(cur), cur[PayloadSize:], PayloadSize
		}
		for k < PayloadSize {
			if len(cur) == 0 {
				if s.n == 0 {
					break
				}
				cur = s.next()
			}
			n := copy(c.Payload[k:], cur)
			cur, k = cur[n:], k+n
		}
		clear(c.Payload[k:]) // pad, and the trailer's space in the last cell
		if s.left--; s.left == 0 {
			c.EOP = true
			binary.BigEndian.PutUint16(c.Payload[PayloadSize-6:], uint16(s.size))
			s.crc = CRC32Update(s.crc, c.Payload[k:PayloadSize-4])
			binary.BigEndian.PutUint32(c.Payload[PayloadSize-4:], ^s.crc)
		} else if k < PayloadSize { // the payload ended here, the trailer in the next cell
			s.crc = CRC32Update(s.crc, c.Payload[k:])
		}
	}
	s.cur = cur
	return s.left
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

// AddMid feeds the next cells of the PDU, none of which ends it (EOP): the
// same as an Add of each, with no PDU to return. A receiver that takes a
// stretch of one VCI's cells at once appends their payloads in one loop.
//
//unetlint:hotpath AAL5 reassembly; runs on every stretch of mid-PDU cells
func (r *Reassembler) AddMid(cells []Cell) {
	if r.buf == nil && r.src != nil {
		r.buf = r.src.Get()
	}
	r.cells += len(cells)
	if n := len(r.buf) + len(cells)*PayloadSize; n <= cap(r.buf) {
		// A slab that holds them all takes each payload as one fixed-size
		// move, no call to memmove.
		buf := r.buf[len(r.buf):n]
		r.buf = r.buf[:n]
		for i := range cells {
			*(*[PayloadSize]byte)(buf[i*PayloadSize:]) = cells[i].Payload
		}
		return
	}
	for i := range cells {
		r.buf = append(r.buf, cells[i].Payload[:]...)
	}
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
