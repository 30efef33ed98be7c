package nic_test

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"unet/internal/atm"
	"unet/internal/fabric"
	"unet/internal/nic"
	"unet/internal/sim"
	"unet/internal/testbed"
	"unet/internal/unet"
)

// An intake script is cell traffic into host 1's NIC, drawn from a seed:
// trains of one to three PDUs on four channels, some interleaved cell by
// cell; a process on host 1 ringing the doorbell with sends at random
// instants; an input FIFO that is often too shallow for a train; and one
// channel closed in the middle of one of its PDUs, by itself or with its
// endpoint (detach).
type intakeScript struct {
	params  nic.Params
	trains  []intakeTrain
	sends   []intakeSend
	closeAt time.Duration
	closeCh int
	detach  bool
	direct  bool // host 1's endpoints take direct-access PDUs (§3.6)
}

type intakeTrain struct {
	at    time.Duration
	pdus  []intakePDU
	order []int // the PDU each cell of the train belongs to, in wire order
}

type intakePDU struct {
	ch     int // a channel of host 1, or unknownCh: a label nothing is open on
	data   []byte
	direct bool // a direct-access PDU: data begins with the deposit offset
}

// unknownCh names a PDU on a label no channel of host 1 is open on.
const unknownCh = -1

type intakeSend struct {
	wait time.Duration
	ch   int // 0 or 1: the sender is the endpoint of channels 0 and 1
	size int
}

const intakeChans = 4 // two endpoints on host 1, two channels each

func newIntakeScript(seed int64) intakeScript {
	rng := rand.New(rand.NewSource(seed))
	params := []func() nic.Params{nic.SBA200Params, nic.SBA200Params, nic.ForeParams, nic.SBA100Params}[rng.Intn(4)]()
	params.InFIFODepth = []int{6, 12, 24, 48, 292}[rng.Intn(5)]
	s := intakeScript{params: params}
	ns := func(n int) time.Duration { return time.Duration(rng.Intn(n)) * time.Nanosecond }
	at := 20*time.Microsecond + ns(1000)
	for range 6 + rng.Intn(14) {
		tr := intakeTrain{at: at}
		for p := range 1 + rng.Intn(3) {
			size := []int{8, 40, 48, 200, 600, 1024, 2000}[rng.Intn(7)]
			data := make([]byte, size)
			rng.Read(data)
			tr.pdus = append(tr.pdus, intakePDU{ch: rng.Intn(intakeChans), data: data})
			for range atm.CellsFor(size) {
				tr.order = append(tr.order, p)
			}
		}
		if rng.Intn(3) == 0 {
			// Cells of different VCIs may share a link cell by cell; each
			// PDU's own cells stay in order.
			rng.Shuffle(len(tr.order), func(i, j int) { tr.order[i], tr.order[j] = tr.order[j], tr.order[i] })
		}
		s.trains = append(s.trains, tr)
		at += time.Duration(len(tr.order))*fabric.DefaultCellTime + ns(80_000)
	}
	for range 4 + rng.Intn(16) {
		s.sends = append(s.sends, intakeSend{wait: ns(60_000), ch: rng.Intn(2), size: []int{16, 40, 300, 1000}[rng.Intn(4)]})
	}
	// The close lands strictly inside one multi-cell PDU's arrival.
	for {
		k := rng.Intn(len(s.trains))
		tr := s.trains[k]
		p := rng.Intn(len(tr.pdus))
		first, last := slices.Index(tr.order, p), len(tr.order)-1
		for tr.order[last] != p {
			last--
		}
		if first == last {
			continue
		}
		span := time.Duration(last-first) * fabric.DefaultCellTime
		s.closeAt = tr.at + time.Duration(first)*fabric.DefaultCellTime + 1 + ns(int(span)-1)
		s.closeCh = tr.pdus[p].ch
		s.detach = rng.Intn(4) == 0
		return s
	}
}

// intakeResult is everything a run shows: each delivery on either host as
// "instant host endpoint channel length crc", and every counter.
type intakeResult struct {
	deliveries []string
	stats      [2]nic.Stats
	epStats    []unet.EndpointStats
}

// digest condenses a result into the 16 hex digits intake.digests pins.
func (r intakeResult) digest() string {
	h := sha256.New()
	for _, d := range r.deliveries {
		fmt.Fprintln(h, d)
	}
	fmt.Fprintf(h, "%+v\n%+v\n", r.stats, r.epStats)
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

// runIntake plays a script into a two-host testbed.
func runIntake(t testing.TB, s intakeScript) intakeResult { return runIntakeSplit(t, s, nil) }

// runIntakeSplit plays a script, each train of more than one cell handed
// to the NIC off a ring whose first chunk ends after boundary(n) of its n
// cells (DeliverRun), or in one slice when boundary is nil.
func runIntakeSplit(t testing.TB, s intakeScript, boundary func(n int) int) intakeResult {
	params := s.params
	tb := testbed.New(testbed.Config{Hosts: 2, NIC: &params})
	defer tb.Close()
	e := tb.Eng
	var res intakeResult
	var eps [2][]*unet.Endpoint
	type channel struct {
		ep *unet.Endpoint
		id unet.ChannelID
		rx atm.VCI
	}
	var chans []channel // host 1's side
	for i := range 2 {
		var pair [2]*unet.Endpoint
		for h := range 2 {
			ep, err := tb.Hosts[h].Kernel.CreateEndpoint(nil, tb.Hosts[h].NewProcess("app"), unet.EndpointConfig{DirectAccess: s.direct && h == 1})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ep.ProvideRecvBuffers(nil, 0, 16); err != nil {
				t.Fatal(err)
			}
			eps[h] = append(eps[h], ep)
			pair[h] = ep
			idx := fmt.Sprintf("host%d ep%d", h, i)
			ep.SetUpcall(unet.UpcallNonEmpty, false, func() {
				for {
					rd, ok := ep.PollRecv(nil)
					if !ok {
						return
					}
					data := ep.Gather(nil, rd, nil)
					if rd.Direct {
						data = make([]byte, rd.Length)
						if err := ep.ReadBuf(nil, rd.DirectOffset, data); err != nil {
							panic(err)
						}
					}
					res.deliveries = append(res.deliveries, fmt.Sprintf("%v %s ch%d %dB %08x", e.Now(), idx, rd.Channel, len(data), crc32.ChecksumIEEE(data)))
				}
			})
		}
		for range 2 {
			c, err := tb.Manager.Connect(nil, pair[0], pair[1])
			if err != nil {
				t.Fatal(err)
			}
			_, rx, _ := pair[1].ChannelVCIs(c.ChanB)
			chans = append(chans, channel{pair[1], c.ChanB, rx})
		}
	}
	dev := tb.Devices[1]
	for _, tr := range s.trains {
		segs := make([][]atm.Cell, len(tr.pdus))
		for p, pdu := range tr.pdus {
			vci := atm.VCI(1000) // beyond host 1's four labels
			if pdu.ch != unknownCh {
				vci = chans[pdu.ch].rx
			}
			segs[p] = atm.Segment(vci, pdu.data)
			for i := range segs[p] {
				segs[p][i].Direct = pdu.direct
			}
		}
		cells := make([]atm.Cell, len(tr.order))
		for i, p := range tr.order {
			cells[i], segs[p] = segs[p][0], segs[p][1:]
		}
		if boundary == nil || len(cells) < 2 {
			e.At(tr.at, func() { dev.DeliverTrain(cells, tr.at, fabric.DefaultCellTime) })
			continue
		}
		r := straddled(cells, boundary(len(cells)))
		e.At(tr.at, func() { dev.DeliverRun(r, len(cells), tr.at, fabric.DefaultCellTime) })
	}
	// Scheduled after the traffic, so a train due at the same instant is in
	// the FIFO first.
	closing := chans[s.closeCh]
	e.At(s.closeAt, func() {
		if s.detach {
			dev.DetachEndpoint(closing.ep)
		} else {
			dev.CloseChannel(closing.ep, closing.id)
		}
	})
	sender := chans[0].ep
	stage := testbed.SendBase(sender, 16)
	tb.Hosts[1].Spawn("send", func(p *sim.Proc) {
		for _, sd := range s.sends {
			p.Sleep(sd.wait)
			if err := sender.SendBlock(p, sender.DescAt(chans[sd.ch].id, stage, sd.size)); err != nil {
				panic(err)
			}
		}
	})
	e.Run()
	for h := range 2 {
		res.stats[h] = tb.Devices[h].Stats()
		for _, ep := range eps[h] {
			res.epStats = append(res.epStats, ep.Stats())
		}
	}
	return res
}

// closeDuringSend is a script the seeded ones do not reach: the close
// lands while the processor, its doorbell latched for a second send, is
// still busy with the first. A blocking loop takes none of the cells that
// arrive meanwhile until its cursor reaches them, so those before the
// close are still queued at it and meet the closed channel.
func closeDuringSend(detach bool) intakeScript {
	n := atm.CellsFor(2000)
	return intakeScript{
		params:  nic.SBA200Params(),
		trains:  []intakeTrain{{at: 25 * time.Microsecond, pdus: []intakePDU{{ch: 2, data: make([]byte, 2000)}}, order: make([]int, n)}},
		sends:   []intakeSend{{wait: 20 * time.Microsecond, size: 1000}, {size: 1000}},
		closeAt: 40 * time.Microsecond,
		closeCh: 2,
		detach:  detach,
	}
}

// overflowDuringSend sends 1 000 bytes at 20 µs while two 13-cell PDUs
// stream into an eight-cell input FIFO. While the send keeps the
// processor from the FIFO it fills, and the cells after that are dropped:
// the first PDU loses its end and the second fails its length check.
func overflowDuringSend() intakeScript {
	params := nic.SBA200Params()
	params.InFIFODepth = 8
	data := make([]byte, 600)
	for i := range data {
		data[i] = byte(i)
	}
	n := atm.CellsFor(len(data))
	order := make([]int, 2*n)
	for i := n; i < 2*n; i++ {
		order[i] = 1
	}
	return intakeScript{
		params:  params,
		trains:  []intakeTrain{{at: 22 * time.Microsecond, pdus: []intakePDU{{ch: 2, data: data}, {ch: 3, data: data}}, order: order}},
		sends:   []intakeSend{{wait: 20 * time.Microsecond, size: 1000}},
		closeAt: time.Millisecond, // after the traffic: closes nothing in flight
		closeCh: 3,
	}
}

// pduOf returns an n-byte PDU on channel ch.
func pduOf(ch, n int) intakePDU {
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(i*7 + n + ch)
	}
	return intakePDU{ch: ch, data: data}
}

// directPDU returns a direct-access PDU on channel ch depositing n bytes at
// segment offset off.
func directPDU(ch, off, n int) intakePDU {
	p := pduOf(ch, 8+n)
	binary.BigEndian.PutUint64(p.data, uint64(off))
	p.direct = true
	return p
}

// addTrain appends a train that arrives gap after the script's last train
// has arrived, or at 25 µs. Its PDUs' cells come k of each in turn, or PDU
// after PDU when k is 0.
func (s *intakeScript) addTrain(gap time.Duration, k int, pdus ...intakePDU) {
	at := 25 * time.Microsecond
	if n := len(s.trains); n > 0 {
		last := s.trains[n-1]
		at = last.at + time.Duration(len(last.order))*fabric.DefaultCellTime + gap
	}
	left := make([]int, len(pdus))
	for p, pdu := range pdus {
		left[p] = atm.CellsFor(len(pdu.data))
	}
	if k == 0 {
		k = slices.Max(left)
	}
	var order []int
	for slices.Max(left) > 0 {
		for p := range left {
			for i := 0; i < k && left[p] > 0; i++ {
				order = append(order, p)
				left[p]--
			}
		}
	}
	s.trains = append(s.trains, intakeTrain{at: at, pdus: pdus, order: order})
}

// stretchScripts end the processor's take of a run of cells at each place
// it can end: at a PDU's last cell, where a PDU of 167 cells crosses the
// input FIFO's ring chunks, where two channels' cells alternate one, two
// or three at a time, at a cell on a label nothing is open on in the
// middle of a PDU, at a direct-access PDU, where a receiver slower than
// the wire takes cells before they arrive, where a receiver faster than
// the wire wakes for each cell, and where an overflowing FIFO has queued
// each cell as a train of its own. Host 1 sends meanwhile, so cells queue
// behind its sends, and the close comes after the traffic.
func stretchScripts() (names []string, scripts []intakeScript) {
	us := time.Microsecond
	sends := []intakeSend{{wait: 30 * us, size: 1000}, {ch: 1, size: 300}, {wait: 200 * us, size: 40}}
	add := func(name string, p nic.Params, direct bool, build func(s *intakeScript)) {
		s := intakeScript{params: p, sends: sends, closeAt: time.Second, closeCh: 2, direct: direct}
		build(&s)
		names, scripts = append(names, name), append(scripts, s)
	}
	sba := nic.SBA200Params()
	mixed := func(s *intakeScript) {
		s.addTrain(0, 0, pduOf(2, 2000), pduOf(3, 600))
		s.addTrain(10*us, 2, pduOf(1, 8), pduOf(2, 1024))
		s.addTrain(0, 0, pduOf(3, 8000))
		s.addTrain(40*us, 0, pduOf(0, 40), pduOf(0, 200))
	}
	add("stretchAcrossChunks", sba, false, func(s *intakeScript) {
		s.addTrain(0, 0, pduOf(2, 2000))
		s.addTrain(5*us, 0, pduOf(3, 8000))
		s.addTrain(0, 0, pduOf(2, 600), pduOf(3, 40))
		s.addTrain(300*us, 0, pduOf(1, 8000), pduOf(2, 8000))
	})
	add("stretchTwoVCIs", sba, false, func(s *intakeScript) {
		s.addTrain(0, 1, pduOf(2, 600), pduOf(3, 600))
		s.addTrain(20*us, 2, pduOf(2, 1024), pduOf(3, 2000))
		s.addTrain(0, 3, pduOf(1, 200), pduOf(2, 8), pduOf(3, 200))
	})
	add("stretchUnknownMidPDU", sba, false, func(s *intakeScript) {
		s.addTrain(0, 0, pduOf(2, 2000), pduOf(unknownCh, 8), pduOf(unknownCh, 200))
		tr := &s.trains[0]
		tr.order = tr.order[:0]
		for _, run := range [][2]int{{0, 10}, {1, 1}, {0, 10}, {2, 5}, {0, 22}} {
			for range run[1] {
				tr.order = append(tr.order, run[0])
			}
		}
		s.addTrain(10*us, 1, pduOf(unknownCh, 600), pduOf(3, 600))
	})
	add("stretchDirectPDU", sba, true, func(s *intakeScript) {
		s.addTrain(0, 0, directPDU(2, 200000, 1000))
		s.addTrain(10*us, 0, directPDU(2, 150000, 16), pduOf(2, 600))
		s.addTrain(0, 1, directPDU(3, 180000, 2000), pduOf(2, 600))
	})
	slow, fast := sba, sba
	slow.RxPerCell, fast.RxPerCell = 5*us, 400*time.Nanosecond
	add("stretchSlowReceiver", slow, false, mixed)
	add("stretchFastReceiver", fast, false, mixed)
	slow.InFIFODepth = 24
	add("stretchOneCellTrains", slow, false, func(s *intakeScript) {
		s.addTrain(0, 0, pduOf(2, 2000))
		s.addTrain(0, 0, pduOf(3, 600))
		s.addTrain(50*us, 1, pduOf(2, 600), pduOf(3, 600))
	})
	return names, scripts
}

// The scripts TestTrainIntakeMatchesBlockingLoop plays, by the names
// intake.digests gives them.
func intakeScripts() (names []string, scripts []intakeScript) {
	names = []string{"closeDuringSend", "detachDuringSend", "overflowDuringSend"}
	scripts = []intakeScript{closeDuringSend(false), closeDuringSend(true), overflowDuringSend()}
	n, s := stretchScripts()
	names, scripts = append(names, n...), append(scripts, s...)
	for seed := int64(1); seed <= 200; seed++ {
		names = append(names, fmt.Sprint("seed", seed))
		scripts = append(scripts, newIntakeScript(seed))
	}
	return names, scripts
}

// TestTrainIntakeMatchesBlockingLoop: the processor that takes an idle
// NIC's cells lazily, one wake per PDU, shows what a processor that sleeps
// at each of its waits showed — every delivery's instant, channel and
// bytes on both hosts, and every counter. testdata/intake.digests holds
// that processor's results, one digest a script; a script whose result
// moves fails with the digest it got. The blocking loop takes a run of
// queued cells when it wakes, cells that arrive later included, so its
// results depend on how the cells were handed to it: a script delivered
// cell by cell is another script.
func TestTrainIntakeMatchesBlockingLoop(t *testing.T) {
	raw, err := os.ReadFile("testdata/intake.digests")
	if err != nil {
		t.Fatal(err)
	}
	pinned := map[string]string{}
	for _, line := range strings.Split(string(raw), "\n") {
		if f := strings.Fields(line); len(f) == 2 && !strings.HasPrefix(line, "#") {
			pinned[f[0]] = f[1]
		}
	}
	names, scripts := intakeScripts()
	var overflowed, closed, delivered int
	for i, s := range scripts {
		r := runIntake(t, s)
		if got := r.digest(); got != pinned[names[i]] {
			t.Errorf("%s: digest %s, the blocking loop's %q", names[i], got, pinned[names[i]])
		}
		if r.stats[1].InFIFODrops > 0 {
			overflowed++
		}
		if r.stats[1].UnknownVCIs+r.stats[1].ClosedDrops > 0 {
			closed++
		}
		delivered += len(r.deliveries)
	}
	// The scripts are only a probe if they reach the paths they are for.
	if n := len(scripts); overflowed < n/10 || closed < n/2 || delivered < 10*n {
		t.Fatalf("over %d scripts: %d overflowed the FIFO, %d met the closed channel, %d deliveries", n, overflowed, closed, delivered)
	}
}

// TestCloseAndOverflowDuringSend spells out two of the pinned results: the
// cells that reach the NIC while its processor sends are taken only once
// the send is done. Closed mid-PDU during the send, the channel has none
// of that PDU's cells taken under its route: all 42 are unknown. With an
// eight-cell FIFO, ten cells are dropped while the processor is busy, and
// neither PDU is delivered.
func TestCloseAndOverflowDuringSend(t *testing.T) {
	for _, tc := range []struct {
		name       string
		s          intakeScript
		deliveries []string
		st         nic.Stats
	}{
		{"close", closeDuringSend(false), []string{
			"139.676µs host0 ep0 ch0 1000B 060b1780",
			"205.994µs host0 ep0 ch0 1000B 060b1780",
		}, nic.Stats{CellsOut: 42, CellsIn: 42, PDUsOut: 2, UnknownVCIs: 42, Doorbells: 2, DoorbellsCoalesced: 1}},
		{"overflow", overflowDuringSend(), []string{
			"139.676µs host0 ep0 ch0 1000B 060b1780",
		}, nic.Stats{CellsOut: 21, CellsIn: 16, PDUsOut: 1, InFIFODrops: 10, BadPDUs: 1, Doorbells: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := runIntake(t, tc.s)
			if !slices.Equal(r.deliveries, tc.deliveries) {
				t.Errorf("deliveries\n%s\nwant\n%s", strings.Join(r.deliveries, "\n"), strings.Join(tc.deliveries, "\n"))
			}
			if r.stats[1] != tc.st {
				t.Errorf("host 1 %+v\nwant   %+v", r.stats[1], tc.st)
			}
		})
	}
}

// FuzzTrainIntake plays any seed's script and checks what holds of every
// run: each cell handed to either NIC is taken or dropped by the time the
// run ends, and a second run shows the same, as does a run that hands each
// train over off a ring whose chunks split it.
func FuzzTrainIntake(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		s := newIntakeScript(seed)
		r := runIntake(t, s)
		var cells uint64
		for _, tr := range s.trains {
			cells += uint64(len(tr.order))
		}
		if st := r.stats[1]; st.CellsIn+st.InFIFODrops != cells {
			t.Fatalf("seed %d: host 1 took %d cells and dropped %d of the %d handed to it", seed, st.CellsIn, st.InFIFODrops, cells)
		}
		if st := r.stats[0]; st.CellsIn+st.InFIFODrops != r.stats[1].CellsOut {
			t.Fatalf("seed %d: host 0 took %d cells and dropped %d of the %d host 1 sent", seed, st.CellsIn, st.InFIFODrops, r.stats[1].CellsOut)
		}
		if again := runIntake(t, s); again.digest() != r.digest() {
			t.Fatalf("seed %d: two runs differ", seed)
		}
		rng := rand.New(rand.NewSource(seed))
		split := runIntakeSplit(t, s, func(n int) int { return 1 + rng.Intn(min(n-1, 128)) })
		if split.digest() != r.digest() {
			t.Fatalf("seed %d: trains read off split rings show other results", seed)
		}
	})
}
