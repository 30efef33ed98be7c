package experiments

import (
	"fmt"
	"time"

	"unet/internal/faults"
	"unet/internal/ip/tcp"
	"unet/internal/stats"
	"unet/internal/testbed"
	"unet/internal/uam"
	"unet/internal/unet"
)

// LossRates is the cell-loss sweep for the goodput-under-loss experiments:
// 0 → 5%. The paper's networks are nearly loss-free (§5.1: cells are
// "practically never lost"), so the interesting regime for the recovery
// protocols is the low-percent range where Romanow & Floyd's observation
// bites — one lost cell costs a whole PDU.
var LossRates = []float64{0, 0.001, 0.005, 0.01, 0.02, 0.05}

// FaultSeed is the default seed for the fault experiments; every impairment
// stream derives from it per link, so all results are reproducible and
// shard-count invariant.
const FaultSeed int64 = 42

// lossPlan is a pure i.i.d. cell-loss plan.
func lossPlan(seed int64, rate float64) *faults.Plan {
	return &faults.Plan{Seed: seed, LossRate: rate}
}

// LossPoint is one row of the goodput-vs-loss sweep.
type LossPoint struct {
	Rate                  float64
	RawDelivered, RawMBps float64
	UAMRTT                time.Duration
	UAMMBps               float64
	UAMRetx               uint64
	TCPRTT                time.Duration
	TCPDelivered, TCPMBps float64
	TCPRetx               uint64
}

// RawGoodputUnderLoss streams count size-byte messages over a lossy fabric
// with no recovery protocol: the delivered fraction falls with the PDU
// loss rate (≈ 1-(1-p)^cells) and the surviving goodput with it.
func RawGoodputUnderLoss(seed int64, rate float64, count, size int) (delivered, mbps float64) {
	tb, pr := rawPair(nil, lossPlan(seed, rate))
	defer tb.Close()
	res := pr.Stream(count, size)
	return float64(res.Delivered) / float64(count), res.MBps()
}

// UAMRTTUnderLoss measures the UAM request/reply round trip over a lossy
// fabric: lost requests or replies are recovered by the go-back-N
// retransmission timer, which shows up as a loss-proportional tail on the
// mean.
func UAMRTTUnderLoss(seed int64, rate float64, size, rounds int) (rtt time.Duration, retx uint64) {
	tb, a, b := uamPair(uam.Config{}, lossPlan(seed, rate))
	defer tb.Close()
	rtt, _ = testbed.Echo(tb, newUAMNode(a, uamRequest, size, false), newUAMNode(b, uamRequest, size, false), size, rounds, uamReplyTimeout) // 0 if the peer died
	return rtt, a.Stats().Retransmits + b.Stats().Retransmits
}

// UAMGoodputUnderLoss stores count size-byte blocks through the reliable
// UAM layer over a lossy fabric. At low-percent loss rates delivery stays
// at 100% — the protocol converts loss into retransmissions and reduced
// goodput, not missing data. At the high end of the sweep whole-PDU loss
// is so amplified (every cell of every segment must survive two lossy
// links) that the retry budget can run out and declare the peer dead.
func UAMGoodputUnderLoss(seed int64, rate float64, count, size int) (delivered, mbps float64, retx uint64) {
	tb, a, b := uamPair(uam.Config{}, lossPlan(seed, rate))
	defer tb.Close()
	f, _ := testbed.Stream(tb, newUAMNode(a, uamStore, size, false), newUAMNode(b, uamStore, 0, false), count, size, uamPoll)
	segs := (size + a.Config().BulkMax - 1) / a.Config().BulkMax
	delivered = float64(b.Stats().StoreSegs) / float64(count*segs)
	if f.End > f.Start {
		mbps = float64(size*count) / (f.End - f.Start).Seconds() / 1e6
	}
	return delivered, mbps, a.Stats().Retransmits
}

// TCPRTTUnderLoss measures the TCP echo round trip over a lossy fabric.
func TCPRTTUnderLoss(seed int64, rate float64, size, rounds int) time.Duration {
	tb, ca, cb := ipPair(PathUNet, 0, lossPlan(seed, rate))
	defer tb.Close()
	return tcpRTT(tb, ca, cb, tcp.DefaultParams(), size, rounds)
}

// TCPGoodputUnderLoss transfers total bytes in writeSize writes over a
// lossy fabric. A single lost cell voids a whole 2 KB segment at the AAL5
// CRC (the §7.8 MSS remark), so cell loss is amplified ~40× at the segment
// level and every loss the window cannot cover costs a retransmission
// timeout, doubling on each repeat. Delivery falls short only when TCP's
// retry budget runs out: the reader waits as long as the writer tries.
func TCPGoodputUnderLoss(seed int64, rate float64, total, writeSize int) (delivered, mbps float64, retx uint64) {
	tb, ca, cb := ipPair(PathUNet, 0, lossPlan(seed, rate))
	defer tb.Close()
	a, b := tcpPair(ca, cb, tcp.DefaultParams(), writeSize)
	f, _ := testbed.Stream(tb, a, b, 1, total, tcpStreamPoll)
	got := min(f.Bytes, total)
	delivered = float64(got) / float64(total)
	if f.Last > f.Start {
		mbps = float64(got) / (f.Last - f.Start).Seconds() / 1e6
	}
	st := a.c.Stats()
	return delivered, mbps, st.Retransmits + st.FastRetransmits
}

// LossSweep runs the full goodput/RTT-vs-loss sweep at the given scale.
func LossSweep(seed int64, rounds, count int) []LossPoint {
	pts := make([]LossPoint, len(LossRates))
	ParallelPoints(len(LossRates), func(i int) {
		rate := LossRates[i]
		pts[i].Rate = rate
		pts[i].RawDelivered, pts[i].RawMBps = RawGoodputUnderLoss(seed, rate, count, 1024)
		pts[i].UAMRTT, _ = UAMRTTUnderLoss(seed, rate, 32, rounds)
		_, pts[i].UAMMBps, pts[i].UAMRetx = UAMGoodputUnderLoss(seed, rate, count, 1024)
		pts[i].TCPRTT = TCPRTTUnderLoss(seed, rate, 32, rounds)
		pts[i].TCPDelivered, pts[i].TCPMBps, pts[i].TCPRetx = TCPGoodputUnderLoss(seed, rate, count*1024, 2048)
	})
	return pts
}

// TableLoss renders the goodput-under-loss sweep: raw AAL5 loses PDUs in
// proportion to the cell-loss rate while the reliable layers keep
// delivering at the cost of retransmissions, latency tails and goodput.
func TableLoss(seed int64, rounds, count int) *stats.Table {
	t := stats.NewTable(fmt.Sprintf("Goodput and RTT under cell loss (seed %d)", seed))
	t.Header("loss", "raw del", "raw MB/s", "UAM RTT µs", "UAM MB/s", "UAM retx", "TCP RTT µs", "TCP del", "TCP MB/s", "TCP retx")
	for _, pt := range LossSweep(seed, rounds, count) {
		t.Row(
			fmt.Sprintf("%.1f%%", pt.Rate*100),
			fmt.Sprintf("%.1f%%", pt.RawDelivered*100),
			fmt.Sprintf("%.1f", pt.RawMBps),
			fmt.Sprintf("%.0f", float64(pt.UAMRTT)/float64(time.Microsecond)),
			fmt.Sprintf("%.1f", pt.UAMMBps),
			fmt.Sprintf("%d", pt.UAMRetx),
			fmt.Sprintf("%.0f", float64(pt.TCPRTT)/float64(time.Microsecond)),
			fmt.Sprintf("%.1f%%", pt.TCPDelivered*100),
			fmt.Sprintf("%.1f", pt.TCPMBps),
			fmt.Sprintf("%d", pt.TCPRetx),
		)
	}
	return t
}

// ChaosConfig parameterizes the chaos soak: an all-to-all storm on the
// 8-host mesh with every impairment model active at once.
type ChaosConfig struct {
	Hosts int
	Count int // messages per host
	Size  int
	Plan  faults.Plan
}

// DefaultChaos is the standard chaos soak: moderate i.i.d. loss, bursty
// Gilbert-Elliott loss, payload and header corruption, duplication,
// bounded jitter, periodic link flaps and a finite switch output queue —
// all seeded, all deterministic.
func DefaultChaos(seed int64) ChaosConfig {
	return ChaosConfig{
		Hosts: 8,
		Count: 40,
		Size:  1024,
		Plan: faults.Plan{
			Seed:             seed,
			LossRate:         0.002,
			BurstPGB:         0.001,
			BurstPBG:         0.25,
			BurstLoss:        1,
			CorruptRate:      0.001,
			HdrCorruptRate:   0.0005,
			DupRate:          0.001,
			JitterRate:       0.01,
			JitterBound:      10 * time.Microsecond,
			FlapPeriod:       20 * time.Millisecond,
			FlapDown:         400 * time.Microsecond,
			FlapOffset:       3 * time.Millisecond,
			SwitchQueueCells: 64,
		},
	}
}

// Chaos runs the seeded chaos soak and reports per-host delivery alongside
// the impairment and drop accounting from every layer: injected faults,
// switch queue tail-drops and NIC CRC rejections. The output is
// deterministic for a given seed and identical at any shard count.
func Chaos(cfg ChaosConfig) *stats.Table {
	tb := testbed.New(testbed.Config{Hosts: cfg.Hosts, Shards: shardCount(), Faults: &cfg.Plan})
	defer tb.Close()
	m, err := tb.NewMesh(unet.EndpointConfig{SegmentSize: 1 << 20}, 64)
	mustNoErr(err, "chaos mesh")
	res, end := m.Storm(cfg.Count, cfg.Size)

	t := stats.NewTable(fmt.Sprintf("Chaos soak: %d hosts, %d×%dB all-to-all (seed %d)",
		cfg.Hosts, cfg.Count, cfg.Size, cfg.Plan.Seed))
	t.Header("host", "sent", "received", "last recv µs")
	sent, recv := 0, 0
	for i, r := range res {
		t.Row(fmt.Sprintf("%d", i), fmt.Sprintf("%d", r.Sent), fmt.Sprintf("%d", r.Received),
			fmt.Sprintf("%.0f", float64(r.LastRecv)/float64(time.Microsecond)))
		sent += r.Sent
		recv += r.Received
	}
	ft := tb.FaultTotal()
	var crc, badPDUs uint64
	for _, d := range tb.Devices {
		crc += d.Stats().CrcDrops
		badPDUs += d.Stats().BadPDUs
	}
	t.Row("total", fmt.Sprintf("%d", sent), fmt.Sprintf("%d", recv),
		fmt.Sprintf("%.0f", float64(end)/float64(time.Microsecond)))
	t.Row("faults", fmt.Sprintf("cells %d", ft.Cells),
		fmt.Sprintf("drop %d+%d", ft.Dropped, ft.DownDrops),
		fmt.Sprintf("corrupt %d/%d dup %d delay %d", ft.Corrupted, ft.HdrDamage, ft.Duplicate, ft.Delayed))
	t.Row("drops", fmt.Sprintf("switchq %d", tb.Topo.TotalQueueDrops()),
		fmt.Sprintf("crc %d", crc), fmt.Sprintf("badpdu %d", badPDUs))
	return t
}
