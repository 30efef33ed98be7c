package atm

import (
	"bytes"
	"testing"
)

// testSource is a minimal BufSource: a LIFO of slabs with get/put/alloc
// accounting (the unet arena implements the same contract; atm cannot
// import it without a cycle).
type testSource struct {
	free   [][]byte
	gets   int
	puts   int
	allocs int
}

func (s *testSource) Get() []byte {
	s.gets++
	if n := len(s.free); n > 0 {
		b := s.free[n-1]
		s.free = s.free[:n-1]
		return b
	}
	s.allocs++
	return nil
}

func (s *testSource) Put(b []byte) {
	s.puts++
	s.free = append(s.free, b[:0])
}

// TestReassemblerPooledDetach checks the SetSource ownership contract: a
// completed PDU's slab detaches at full capacity (ready for reuse without
// regrowth), successive PDUs recycle the same slab through the source, and
// the pool sees exactly one allocation across many PDUs.
func TestReassemblerPooledDetach(t *testing.T) {
	var src testSource
	var r Reassembler
	r.SetSource(&src)

	payload := make([]byte, 1000)
	for i := range payload {
		payload[i] = byte(i * 13)
	}

	const rounds = 8
	for round := 0; round < rounds; round++ {
		var pdu []byte
		for _, c := range Segment(VCI(3), payload) {
			out, err := r.Add(c)
			if err != nil {
				t.Fatalf("round %d: Add: %v", round, err)
			}
			if out != nil {
				pdu = out
			}
		}
		if !bytes.Equal(pdu, payload) {
			t.Fatalf("round %d: reassembled payload differs", round)
		}
		// The slab is detached: the reassembler must not touch it again
		// even if a new PDU starts before we return it.
		if len(pdu) == cap(pdu) {
			t.Fatalf("round %d: detached slab has no spare capacity (len=cap=%d); padding was trimmed, not detached", round, len(pdu))
		}
		src.Put(pdu[:0])
	}

	if src.allocs != 1 {
		t.Fatalf("pool allocated %d slabs over %d PDUs, want 1 (slab recycled)", src.allocs, rounds)
	}
	if src.gets != rounds || src.puts != rounds {
		t.Fatalf("gets/puts = %d/%d, want %d/%d", src.gets, src.puts, rounds, rounds)
	}
}

// TestReassemblerResetReturnsSlab checks that discarding a partial PDU
// hands the pooled slab back instead of stranding it.
func TestReassemblerResetReturnsSlab(t *testing.T) {
	var src testSource
	var r Reassembler
	r.SetSource(&src)

	cells := Segment(VCI(3), make([]byte, 500))
	for _, c := range cells[:len(cells)-1] { // withhold EOP
		if _, err := r.Add(c); err != nil {
			t.Fatal(err)
		}
	}
	if r.Pending() == 0 {
		t.Fatal("no partial PDU pending before Reset")
	}
	r.Reset()
	if got := src.gets - src.puts; got != 0 {
		t.Fatalf("source holds %d outstanding slab(s) after Reset, want 0", got)
	}
	if r.Pending() != 0 {
		t.Fatalf("Pending = %d after Reset, want 0", r.Pending())
	}
}
