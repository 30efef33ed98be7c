package tcp

import "testing"

// Property: sequence arithmetic survives wraparound — a long transfer that
// crosses the 32-bit sequence space boundary stays correct. (The initial
// sequence number is near the top of the space via a connection that has
// already moved its window; modeled by transferring > 2^32 bytes being
// impractical, we instead check the helpers directly.)
func TestSeqArithmeticWraparound(t *testing.T) {
	if !seqLT(0xFFFFFF00, 0x00000010) {
		t.Fatal("seqLT fails across wraparound")
	}
	if seqLT(0x00000010, 0xFFFFFF00) {
		t.Fatal("seqLT inverted across wraparound")
	}
	if !seqLEQ(5, 5) {
		t.Fatal("seqLEQ not reflexive")
	}
}
