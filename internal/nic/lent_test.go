package nic

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"unet/internal/atm"
	"unet/internal/fabric"
	"unet/internal/sim"
	"unet/internal/topo"
	"unet/internal/unet"
)

// twinSink checks every cell a link hands it against want, the cells
// expected next, and counts the ring chunk boundaries that fell inside a
// PDU: a train that straddles the link's ring chunks reaches a plain sink
// as one DeliverTrain per chunk, all at the train's head, so a call whose
// first cell arrives after now continues the call before it.
type twinSink struct {
	e     *sim.Engine
	want  []atm.Cell
	got   int
	split int
	err   error
}

func (s *twinSink) DeliverTrain(cells []atm.Cell, first, _ time.Duration) {
	if first > s.e.Now() && s.got > 0 && s.got <= len(s.want) && !s.want[s.got-1].EOP {
		s.split++
	}
	for _, c := range cells {
		switch {
		case s.err != nil:
		case s.got >= len(s.want):
			s.err = fmt.Errorf("cell %d reached the link, %d expected", s.got, len(s.want))
		case c != s.want[s.got]:
			s.err = fmt.Errorf("cell %d of the run is %+v, want %+v", s.got, c, s.want[s.got])
		}
		s.got++
	}
}

// passAll is an injector that lets every cell through as it is.
type passAll struct{}

func (passAll) Judge(*atm.Cell, time.Duration) fabric.Verdict { return fabric.Verdict{} }

// TestLentCellsMatchSegmentAppend: the cells the NIC segments straight into
// its uplink's lent slots are atm.SegmentAppend's cells of the message's
// bytes gathered into one slice — behind the 8-byte deposit offset, and
// every cell marked Direct, for a direct-access message. It sends every
// size from 0 to 5 120 bytes and MaxPDU from the segment, direct and by
// DescAt (inline up to 40 bytes: the fast path on the SBA-200, the
// segmenter's inline part on Fore firmware at 0 bytes), read from pages
// never written, pages written one run each, runs of several pages and runs
// merged under Writable views. The local uplink's ring must somewhere lend
// a PDU fewer slots in its tail chunk than the PDU needs; an uplink with an
// injector lends link-owned scratch instead.
func TestLentCellsMatchSegmentAppend(t *testing.T) {
	for _, tc := range []struct {
		name   string
		params Params
		inj    bool
		every  int // sizes below 5 120 sent: every one, or every 7th
	}{
		{"SBA-200", SBA200Params(), false, 1},
		{"SBA-200 with an injector", SBA200Params(), true, 7},
		{"Fore firmware", ForeParams(), false, 7},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := sim.New(1)
			t.Cleanup(e.Shutdown)
			cl := topo.MustCompile(e, topo.Star("atm", 2), nil)
			m := unet.NewManager(cl)
			const size = 256 << 10
			var eps [2]*unet.Endpoint
			var d *Device
			for i := range eps {
				h := unet.NewHost(e, fmt.Sprintf("host%d", i))
				d = Attach(h, cl, m, i, tc.params)
				ep, err := h.Kernel.CreateEndpoint(nil, h.NewProcess("app"), unet.EndpointConfig{SegmentSize: size})
				if err != nil {
					t.Fatal(err)
				}
				eps[i] = ep
			}
			ch, err := m.Connect(nil, eps[1], eps[0])
			if err != nil {
				t.Fatal(err)
			}
			ep, chA := eps[1], ch.ChanA
			sink := &twinSink{e: e}
			d.uplink = fabric.NewLink(e, "twin", fabric.DefaultLinkParams(), sink)
			if tc.inj {
				d.uplink.SetInjector(passAll{})
			}

			// A quarter of the pages are never written; the rest are
			// written a page, or three pages, at a time, each write its own
			// run; then views across run ends merge some of them.
			rng := rand.New(rand.NewSource(1))
			flat := make([]byte, size)
			for page := 0; page < size>>10; page++ {
				k := 1 + 2*rng.Intn(2)
				if rng.Intn(4) == 0 || page+k > size>>10 {
					continue
				}
				b := flat[page<<10 : (page+k)<<10]
				rng.Read(b)
				ep.DevWriteSegment(page<<10, b)
				page += k - 1
			}
			for range 40 {
				off := (1+rng.Intn(size>>10-1))<<10 - 1 - rng.Intn(39)
				v := ep.DescAt(chA, off, 40)
				if v.Inline != nil && string(v.Inline) != string(flat[off:off+40]) {
					t.Fatalf("view at %d reads other bytes than were written", off)
				}
			}

			tx, _, _ := ep.ChannelVCIs(chA)
			send := func(desc unet.SendDesc, payload []byte) {
				t.Helper()
				for {
					err := ep.Send(nil, desc)
					if err == nil {
						break
					}
					if err != unet.ErrSendQueueFull {
						t.Fatalf("Send(%+v): %v", desc, err)
					}
					e.Run()
					sink.want, sink.got = sink.want[:copy(sink.want, sink.want[sink.got:])], 0
				}
				base := len(sink.want)
				sink.want = atm.SegmentAppend(sink.want, tx, payload)
				for i := range sink.want[base:] {
					sink.want[base+i].Direct = desc.Direct
				}
			}
			var sizes []int
			for n := 0; n <= 5120; n++ {
				if n%tc.every == 0 || n <= 2*atm.PayloadSize {
					sizes = append(sizes, n)
				}
			}
			for _, n := range append(sizes, atm.MaxPDU) {
				off := rng.Intn(size - n + 1)
				send(unet.SendDesc{Channel: chA, Offset: off, Length: n}, flat[off:off+n])
				desc := ep.DescAt(chA, off, n)
				send(desc, flat[off:off+n])
				m := min(n, atm.MaxPDU-unet.DirectHeaderSize)
				dst := rng.Intn(size - m + 1)
				payload := binary.BigEndian.AppendUint64(nil, uint64(dst))
				send(unet.SendDesc{Channel: chA, Offset: off, Length: m, Direct: true, DstOffset: dst}, append(payload, flat[off:off+m]...))
			}
			e.Run()
			if sink.err != nil {
				t.Fatal(sink.err)
			}
			if sink.got != len(sink.want) {
				t.Fatalf("%d cells reached the link, want %d", sink.got, len(sink.want))
			}
			// The SBA-200 outruns the fiber, so cells back up in a local
			// uplink's ring.
			if !tc.inj && tc.params.TxPerCell < fabric.DefaultCellTime && sink.split == 0 {
				t.Fatal("no PDU was lent slots in two ring chunks: the ring's short tail chunk went untested")
			}
		})
	}
}
