package experiments

import "testing"

// TestLossRecoveryDelivery pins the acceptance criterion of the recovery
// paths: at ≤1% cell loss the reliable layers deliver 100% of the data
// with a bounded number of retransmissions, while raw AAL5 loses PDUs
// roughly in proportion to the cell-loss rate.
func TestLossRecoveryDelivery(t *testing.T) {
	if testing.Short() {
		t.Skip("loss recovery sweep is not short")
	}
	const count = 60

	uamDel, _, uamRetx := UAMGoodputUnderLoss(FaultSeed, 0.01, count, 1024)
	if uamDel != 1.0 {
		t.Fatalf("UAM delivered %.1f%% at 1%% cell loss, want 100%%", uamDel*100)
	}
	if uamRetx == 0 {
		t.Fatal("UAM saw no retransmissions at 1% cell loss")
	}
	// Each 1024B store is one 22-cell PDU crossing two lossy links, so at
	// 1% cell loss roughly a third of PDUs need at least one go-back-N
	// replay (which resends the whole window). That bounds retransmits
	// well under count*window.
	if uamRetx > uint64(count*8) {
		t.Fatalf("UAM retransmits = %d for %d stores: recovery not bounded", uamRetx, count)
	}

	tcpDel, _, tcpRetx := TCPGoodputUnderLoss(FaultSeed, 0.01, count*1024, 2048)
	if tcpDel != 1.0 {
		t.Fatalf("TCP delivered %.1f%% at 1%% cell loss, want 100%%", tcpDel*100)
	}
	if tcpRetx == 0 {
		t.Fatal("TCP saw no retransmissions at 1% cell loss")
	}

	rawDel, _ := RawGoodputUnderLoss(FaultSeed, 0.02, 200, 1024)
	if rawDel >= 1.0 {
		t.Fatalf("raw AAL5 delivered %.1f%% at 2%% cell loss, want visible PDU loss", rawDel*100)
	}
	// 1024B = 22 cells per PDU: expected survival (0.98)^22 ≈ 64%. Allow a
	// wide band — the point is proportional loss, not the exact binomial.
	if rawDel < 0.3 || rawDel > 0.95 {
		t.Fatalf("raw AAL5 delivered %.1f%% at 2%% cell loss, want roughly (1-p)^cells ≈ 64%%", rawDel*100)
	}
}

// TestTCPReaderOutlastsTheWriter: at 2 % cell loss (seed 42) the handshake's
// last ACK and the first data segment are lost, and the writer's first
// retransmission waits out TCP's initial 1 s timeout. The reader must still
// be there to take it: the transfer completes, decided by TCP, not by how
// long the driver's reader was willing to wait.
func TestTCPReaderOutlastsTheWriter(t *testing.T) {
	del, _, retx := TCPGoodputUnderLoss(FaultSeed, 0.02, 10<<10, 2048)
	if del != 1 || retx == 0 {
		t.Fatalf("delivered %.1f%% with %d retransmissions at 2%% cell loss, want all of it after some", del*100, retx)
	}
}
