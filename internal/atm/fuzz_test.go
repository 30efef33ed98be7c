package atm

import (
	"bytes"
	"testing"
)

// FuzzAAL5RoundTrip checks the AAL5 segmentation/reassembly pair on
// arbitrary payloads: a segmented PDU must reassemble byte-identically, a
// single flipped payload bit must fail validation (the CRC-32 covers
// payload, padding and trailer), and a dropped cell must either fail the
// length check or leave the reassembler pending.
func FuzzAAL5RoundTrip(f *testing.F) {
	f.Add(uint16(5), []byte("hello"))
	f.Add(uint16(0), []byte{})
	f.Add(uint16(99), bytes.Repeat([]byte{0xAB}, 200))
	f.Add(uint16(1), make([]byte, SingleCellMax))
	f.Add(uint16(4097), make([]byte, PayloadSize-TrailerSize+1))
	f.Fuzz(func(t *testing.T, vci uint16, payload []byte) {
		if len(payload) > MaxPDU {
			payload = payload[:MaxPDU]
		}
		cells := Segment(VCI(vci), payload)
		if want := max(CellsFor(len(payload)), 1); len(cells) != want {
			t.Fatalf("Segment produced %d cells, want %d", len(cells), want)
		}

		var r Reassembler
		for i, c := range cells {
			got, err := r.Add(c)
			if i < len(cells)-1 {
				if got != nil || err != nil {
					t.Fatalf("cell %d/%d completed early: payload=%v err=%v", i, len(cells), got != nil, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("reassembly failed: %v", err)
			}
			if !bytes.Equal(got, payload) {
				t.Fatalf("round trip mismatch: got %d bytes, want %d", len(got), len(payload))
			}
		}

		// One flipped payload bit anywhere in the PDU (including padding and
		// trailer) must be caught. The bit index is derived from the inputs so
		// the check stays deterministic per corpus entry.
		bit := int(vci) % (len(cells) * PayloadSize * 8)
		flipped := append([]Cell(nil), cells...)
		flipped[bit/(PayloadSize*8)].Payload[bit/8%PayloadSize] ^= 1 << (bit % 8)
		var rf Reassembler
		for i, c := range flipped {
			got, err := rf.Add(c)
			if i < len(flipped)-1 {
				continue
			}
			if err == nil {
				t.Fatalf("flipped bit %d went undetected (returned %d bytes)", bit, len(got))
			}
		}

		// A dropped cell must never yield a PDU: dropping the EOP cell leaves
		// the reassembler pending, dropping any other fails the length check.
		if len(cells) >= 2 {
			drop := int(vci) % len(cells)
			var rd Reassembler
			for i, c := range cells {
				if i == drop {
					continue
				}
				got, err := rd.Add(c)
				if i == len(cells)-1 && err == nil {
					t.Fatalf("dropped cell %d went undetected (returned %d bytes)", drop, len(got))
				}
			}
			if drop == len(cells)-1 && rd.Pending() != len(cells)-1 {
				t.Fatalf("dropped EOP cell: pending=%d want %d", rd.Pending(), len(cells)-1)
			}
		}
	})
}

// FuzzCellHeader checks the wire header codec: every encodable header
// decodes back to the same routing fields, and every single-bit corruption
// of the 40 header bits is rejected (the HEC's CRC-8 detects all single-bit
// errors, and the canonical-form checks backstop the GFC/VPI/PTI/CLP
// fields).
func FuzzCellHeader(f *testing.F) {
	f.Add(uint16(0), false, false)
	f.Add(uint16(40), true, false)
	f.Add(uint16(0xFFFF), true, true)
	f.Add(uint16(4097), false, true)
	f.Fuzz(func(t *testing.T, vci uint16, eop, direct bool) {
		c := Cell{VCI: VCI(vci), EOP: eop, Direct: direct}
		h := c.EncodeHeader()
		got, err := DecodeHeader(h)
		if err != nil {
			t.Fatalf("decoding canonical header % x: %v", h, err)
		}
		if got != c {
			t.Fatalf("round trip mismatch: got %+v want %+v", got, c)
		}
		for bit := 0; bit < HeaderSize*8; bit++ {
			bad := h
			bad[bit/8] ^= 1 << (bit % 8)
			if _, err := DecodeHeader(bad); err == nil {
				t.Fatalf("single-bit corruption at bit %d went undetected", bit)
			}
		}
	})
}

// cutPieces reads b a piece at a time, each piece ending at the next cut.
type cutPieces struct {
	b    []byte
	cuts []int // ascending
}

func (p cutPieces) Piece(off, n int) []byte {
	end := off + n
	for _, c := range p.cuts {
		if c > off && c < end {
			end = c
			break
		}
	}
	return p.b[off:end]
}

// FuzzSegmentParts checks the segmenter against itself over one part: a
// payload split at random into a body and a run of pieces, filled a random
// number of cells at a time into dirty cells, must give exactly the cells
// of the whole payload. The split's bytes choose every cut.
func FuzzSegmentParts(f *testing.F) {
	f.Add(uint16(5), []byte("hello"), []byte{1, 2, 3})
	f.Add(uint16(0), []byte{}, []byte{})
	f.Add(uint16(9), bytes.Repeat([]byte{0xAB}, 3000), []byte{8, 200, 13, 40, 255, 1})
	f.Add(uint16(7), make([]byte, 2*PayloadSize-TrailerSize+3), []byte{0, 0, 90, 2})
	f.Fuzz(func(t *testing.T, vci uint16, payload, split []byte) {
		if len(payload) > MaxPDU {
			payload = payload[:MaxPDU]
		}
		pick := func(k int) int {
			if len(split) == 0 {
				return 0
			}
			v := int(split[0])
			split = split[1:]
			return v % k
		}
		direct := len(split)%2 == 1
		b := pick(len(payload) + 1)
		src := cutPieces{b: payload}
		for at := b + 1 + pick(300); at < len(payload); at += 1 + pick(300) {
			src.cuts = append(src.cuts, at)
		}
		var s Segmenter
		n := s.Start(VCI(vci), direct, payload[:b], src, b, len(payload)-b)
		want := Segment(VCI(vci), payload)
		for i := range want {
			want[i].Direct = direct
		}
		if n != len(want) {
			t.Fatalf("%d cells to fill, want %d", n, len(want))
		}
		got := make([]Cell, len(want)) // dirty, as lent slots are
		for i := range got {
			got[i] = Cell{VCI: 1, EOP: true, Direct: !direct, Payload: [PayloadSize]byte{0xA5, PayloadSize - 1: 0xA5}}
		}
		for i := 0; i < len(got); {
			k := min(1+pick(50), len(got)-i)
			if left := s.Fill(got[i : i+k]); left != len(got)-i-k {
				t.Fatalf("%d cells left after %d, want %d", left, i+k, len(got)-i-k)
			}
			i += k
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("body %d, pieces cut at %v: cell %d is %+v, want %+v", b, src.cuts, i, got[i], want[i])
			}
		}
	})
}
