package atm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"slices"
	"testing"
	"testing/quick"
)

func TestCellsFor(t *testing.T) {
	cases := []struct{ n, want int }{
		{0, 1},
		{1, 1},
		{40, 1}, // 40 + 8 trailer = 48: exactly one cell
		{41, 2}, // spills the trailer into a second cell
		{48, 2}, // the paper's "longer messages start at 120µs for 48 bytes"
		{88, 2}, // 88 + 8 = 96: exactly two cells
		{89, 3},
		{800, 17}, // saturation-size packet in Figure 4
		{4096, 86},
		{4160, 87}, // UAM buffer size behind the Figure 4 dip
	}
	for _, c := range cases {
		if got := CellsFor(c.n); got != c.want {
			t.Errorf("CellsFor(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestCellsForNegative(t *testing.T) {
	if got := CellsFor(-1); got != 0 {
		t.Fatalf("CellsFor(-1) = %d, want 0", got)
	}
}

func TestWireBytes(t *testing.T) {
	if got := WireBytes(40); got != 53 {
		t.Fatalf("WireBytes(40) = %d, want 53", got)
	}
	if got := WireBytes(48); got != 106 {
		t.Fatalf("WireBytes(48) = %d, want 106", got)
	}
}

// TestCRC32CheckValue pins the polynomial, bit order, initial value and
// final complement by constants rather than by the library that computes
// them: the CRC-32 check value every catalogue lists, and the CPCS trailer
// of one three-cell AAL5 PDU written out.
func TestCRC32CheckValue(t *testing.T) {
	if got := CRC32([]byte("123456789")); got != 0xCBF43926 {
		t.Errorf(`CRC32("123456789") = %08x, want cbf43926`, got)
	}
	payload := make([]byte, 100)
	for i := range payload {
		payload[i] = byte(i)
	}
	cells := Segment(5, payload)
	want := []byte{0x00, 0x00, 0x00, 0x64, 0xBD, 0x8E, 0x65, 0x17} // UU, CPI, length 100, CRC-32
	if got := cells[len(cells)-1].Payload[PayloadSize-8:]; len(cells) != 3 || !bytes.Equal(got, want) {
		t.Errorf("%d cells, trailer % x, want 3 cells, trailer % x", len(cells), got, want)
	}
}

func TestCRC32UpdateIncremental(t *testing.T) {
	data := []byte("the quick brown fox jumps over the lazy dog")
	whole := CRC32(data)
	state := uint32(0xFFFFFFFF)
	for _, b := range data {
		state = CRC32Update(state, []byte{b})
	}
	if got := state ^ 0xFFFFFFFF; got != whole {
		t.Fatalf("incremental CRC = %08x, want %08x", got, whole)
	}
}

func TestCRC32Quick(t *testing.T) {
	// Folding a message in two pieces is folding it whole, wherever the cut.
	f := func(a, b []byte) bool {
		state := CRC32Update(CRC32Update(0xFFFFFFFF, a), b)
		return state^0xFFFFFFFF == CRC32(append(a, b...))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func roundTrip(t *testing.T, vci VCI, payload []byte) []byte {
	t.Helper()
	cells := Segment(vci, payload)
	var r Reassembler
	for i, c := range cells {
		if c.VCI != vci {
			t.Fatalf("cell %d VCI = %d, want %d", i, c.VCI, vci)
		}
		wantEOP := i == len(cells)-1
		if c.EOP != wantEOP {
			t.Fatalf("cell %d EOP = %v, want %v", i, c.EOP, wantEOP)
		}
		out, err := r.Add(c)
		if err != nil {
			t.Fatalf("Add cell %d: %v", i, err)
		}
		if (out != nil) != wantEOP && !(wantEOP && len(payload) == 0) {
			t.Fatalf("cell %d returned PDU = %v, want at EOP only", i, out != nil)
		}
		if wantEOP {
			return out
		}
	}
	t.Fatal("no EOP cell")
	return nil
}

func TestSegmentReassembleSizes(t *testing.T) {
	for _, n := range []int{0, 1, 39, 40, 41, 47, 48, 49, 88, 89, 100, 800, 1024, 4096, 4164, 5000, MaxPDU} {
		payload := make([]byte, n)
		for i := range payload {
			payload[i] = byte(i*7 + n)
		}
		got := roundTrip(t, VCI(5), payload)
		if !bytes.Equal(got, payload) {
			t.Fatalf("size %d: reassembled payload differs", n)
		}
	}
}

// segmentPerCell is the segmentation SegmentAppend replaced, kept as its
// reference: the PDU is laid out cell by cell and the CRC folded 48 bytes
// at a time, in wire order.
func segmentPerCell(vci VCI, payload []byte) []Cell {
	cells := make([]Cell, max(CellsFor(len(payload)), 1))
	crc := uint32(0xFFFFFFFF)
	rest := payload
	for i := range cells {
		c := &cells[i]
		c.VCI = vci
		rest = rest[copy(c.Payload[:], rest):]
		if i < len(cells)-1 {
			crc = CRC32Update(crc, c.Payload[:])
		}
	}
	last := &cells[len(cells)-1]
	last.EOP = true
	binary.BigEndian.PutUint16(last.Payload[PayloadSize-6:], uint16(len(payload)))
	crc = CRC32Update(crc, last.Payload[:PayloadSize-4]) ^ 0xFFFFFFFF
	binary.BigEndian.PutUint32(last.Payload[PayloadSize-4:], crc)
	return cells
}

// TestSegmentMatchesPerCellFold pins SegmentAppend's bytes: folding the CRC
// over the whole payload and then over the pad and trailer must produce the
// cells the per-cell fold does, at every alignment of the payload's end
// against the cell boundary (trailer in the same cell, split pad, trailer
// alone in a cell of its own) and at the sizes the experiments send. dst
// starts dirty and non-empty: the cells are assembled in place.
func TestSegmentMatchesPerCellFold(t *testing.T) {
	sizes := []int{1024, 4096, 9180, MaxPDU}
	for n := 0; n <= 4*PayloadSize+TrailerSize; n++ {
		sizes = append(sizes, n)
	}
	dirty := Cell{VCI: 99, EOP: true, Direct: true}
	for i := range dirty.Payload {
		dirty.Payload[i] = 0xA5
	}
	var dst []Cell
	for _, n := range sizes {
		payload := make([]byte, n)
		for i := range payload {
			payload[i] = byte(i*131 + n)
		}
		want := segmentPerCell(7, payload)
		dst = append(dst[:0], dirty)
		for i := range dst[1:cap(dst)] {
			dst[1:cap(dst)][i] = dirty
		}
		dst = SegmentAppend(dst, 7, payload)
		if !slices.Equal(dst[1:], want) || dst[0] != dirty {
			t.Fatalf("size %d: SegmentAppend's cells differ from the per-cell fold's", n)
		}
		var r Reassembler
		for i, c := range dst[1:] {
			got, err := r.Add(c)
			if err != nil {
				t.Fatalf("size %d: Add cell %d: %v", n, i, err)
			}
			if c.EOP && !bytes.Equal(got, payload) {
				t.Fatalf("size %d: reassembled payload differs", n)
			}
		}
	}
}

func TestSegmentCellCount(t *testing.T) {
	for _, n := range []int{0, 1, 40, 41, 48, 4096} {
		cells := Segment(1, make([]byte, n))
		want := CellsFor(n)
		if n == 0 {
			want = 1
		}
		if len(cells) != want {
			t.Fatalf("Segment(%d bytes) = %d cells, want %d", n, len(cells), want)
		}
	}
}

func TestSegmentTooLongPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Segment accepted an oversized PDU")
		}
	}()
	Segment(1, make([]byte, MaxPDU+1))
}

func TestReassembleCorruptPayload(t *testing.T) {
	cells := Segment(1, bytes.Repeat([]byte{0x42}, 100))
	cells[0].Payload[10] ^= 0x01
	var r Reassembler
	var err error
	for _, c := range cells {
		_, err = r.Add(c)
	}
	if !errors.Is(err, ErrBadCRC) {
		t.Fatalf("err = %v, want ErrBadCRC", err)
	}
	if r.Pending() != 0 {
		t.Fatalf("Pending() = %d after error, want 0 (state reset)", r.Pending())
	}
}

func TestReassembleLostCell(t *testing.T) {
	cells := Segment(1, bytes.Repeat([]byte{0x42}, 200)) // 5 cells
	var r Reassembler
	var err error
	for i, c := range cells {
		if i == 2 {
			continue // drop a middle cell
		}
		_, err = r.Add(c)
	}
	if err == nil {
		t.Fatal("reassembly of PDU with lost cell succeeded")
	}
	if !errors.Is(err, ErrBadLength) && !errors.Is(err, ErrBadCRC) {
		t.Fatalf("err = %v, want length or CRC error", err)
	}
}

func TestReassemblerReuseAfterSuccess(t *testing.T) {
	var r Reassembler
	for i := 0; i < 3; i++ {
		payload := bytes.Repeat([]byte{byte(i)}, 100+i)
		var got []byte
		for _, c := range Segment(9, payload) {
			out, err := r.Add(c)
			if err != nil {
				t.Fatalf("round %d: %v", i, err)
			}
			if out != nil {
				got = out
			}
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("round %d: payload mismatch", i)
		}
	}
}

func TestReassemblerQuick(t *testing.T) {
	f := func(payload []byte, vci uint16) bool {
		if len(payload) > MaxPDU {
			payload = payload[:MaxPDU]
		}
		var r Reassembler
		var got []byte
		for _, c := range Segment(VCI(vci), payload) {
			out, err := r.Add(c)
			if err != nil {
				return false
			}
			if out != nil {
				got = out
			}
		}
		return bytes.Equal(got, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestZeroBytePDU(t *testing.T) {
	got := roundTrip(t, 3, nil)
	if len(got) != 0 {
		t.Fatalf("zero-byte PDU reassembled to %d bytes", len(got))
	}
}

func BenchmarkSegment4K(b *testing.B) {
	payload := make([]byte, 4096)
	b.SetBytes(4096)
	for i := 0; i < b.N; i++ {
		Segment(1, payload)
	}
}

func BenchmarkReassemble4K(b *testing.B) {
	cells := Segment(1, make([]byte, 4096))
	var r Reassembler
	b.SetBytes(4096)
	for i := 0; i < b.N; i++ {
		for _, c := range cells {
			if _, err := r.Add(c); err != nil {
				b.Fatal(err)
			}
		}
	}
}
