// Package experiments contains the measurement drivers and the per-table /
// per-figure harnesses that regenerate every result in the paper's
// evaluation (Tables 1-3, Figures 3-9), and All, the one table of them
// that cmd/unetbench, the golden tests and BenchmarkExperiments iterate —
// so the CLI, the goldens and `go test -bench` see the same rows.
package experiments

import (
	"errors"
	"fmt"
	"time"

	"unet/internal/faults"
	"unet/internal/nic"
	"unet/internal/sim"
	"unet/internal/testbed"
	"unet/internal/uam"
	"unet/internal/unet"
)

// RawRTT measures the raw U-Net round-trip time for size-byte messages on
// a pair with the given NIC (Figure 3, "Raw U-Net").
func RawRTT(nicp nic.Params, size, rounds int) time.Duration {
	tb, pr := rawPair(&nicp, nil)
	defer tb.Close()
	return pr.PingPong(rounds, size)
}

// RawBandwidth measures raw U-Net streaming bandwidth (Figure 4, "Raw
// U-Net").
func RawBandwidth(nicp nic.Params, size, count int) testbed.StreamResult {
	tb, pr := rawPair(&nicp, nil)
	defer tb.Close()
	return pr.Stream(count, size)
}

// rawPair connects an endpoint on each of two hosts with the given NIC (nil:
// the SBA-200) over a fabric plan impairs. The caller owns tb.Close.
func rawPair(nicp *nic.Params, plan *faults.Plan) (*testbed.Testbed, *testbed.Pair) {
	tb := testbed.New(testbed.Config{Hosts: 2, NIC: nicp, Shards: shardCount(), Faults: plan})
	pr, err := tb.NewPair(0, 1, unet.EndpointConfig{}, 32)
	mustNoErr(err, "raw pair")
	return tb, pr
}

// uamPair builds two connected UAM nodes over a fabric impaired by plan
// (nil is the perfect wire). The caller owns tb.Close.
func uamPair(cfg uam.Config, plan *faults.Plan) (*testbed.Testbed, *uam.UAM, *uam.UAM) {
	tb := testbed.New(testbed.Config{Hosts: 2, Shards: shardCount(), Faults: plan})
	a, err := uam.New(tb.Hosts[0].NewProcess("am"), 0, cfg)
	mustNoErr(err, "uam node 0")
	b, err := uam.New(tb.Hosts[1].NewProcess("am"), 1, cfg)
	mustNoErr(err, "uam node 1")
	mustNoErr(uam.Connect(tb.Manager, a, b), "uam connect")
	return tb, a, b
}

// uamPoll is how long a UAM node waits for traffic before it looks at its
// retransmission timers (and a serving node at whether the run is over);
// the go-back-N timer recovers a lost reply well within uamReplyTimeout.
const (
	uamPoll         = time.Millisecond
	uamReplyTimeout = 100 * time.Millisecond
)

// What a uamNode's message is: an echo request, a block store into the
// peer's memory, or a block get out of it.
const (
	uamRequest = iota
	uamStore
	uamGet
)

// Handler indices of the echo: the request, and the reply that brings its
// payload back.
const (
	hEcho  = 1
	hEchoR = 2
)

// uamNode is a Messenger over a UAM node and its one peer. A request's
// handler on the peer replies with the same payload, and Recv polls until
// the reply is in; on the serving side nothing comes back to Recv, and its
// polls are what run the handlers and acknowledgments. With warm set, Open
// sends one unmeasured message and closes. Close waits until every store is
// acknowledged or every get has landed.
type uamNode struct {
	u        *uam.UAM
	op, peer int
	warm     bool
	data     []byte
	tags     []uint32
	replied  int // the last reply's length, -1 while one is awaited
}

func newUAMNode(u *uam.UAM, op, size int, warm bool) *uamNode {
	m := &uamNode{u: u, op: op, peer: 1 - u.Node(), warm: warm, data: make([]byte, size), replied: -1}
	mustNoErr(u.RegisterHandler(hEcho, func(u *uam.UAM, p *sim.Proc, src int, arg uint32, data []byte) {
		if err := u.Reply(p, hEchoR, arg, data); err != nil && !errors.Is(err, uam.ErrPeerDead) {
			panic(err)
		}
	}), "echo handler")
	mustNoErr(u.RegisterHandler(hEchoR, func(u *uam.UAM, p *sim.Proc, src int, arg uint32, data []byte) { m.replied = len(data) }), "reply handler")
	return m
}

func (m *uamNode) Open(p *sim.Proc) error {
	if !m.warm {
		return nil
	}
	if err := m.Send(p, len(m.data)); err != nil {
		return err
	}
	return m.Close(p)
}

func (m *uamNode) Send(p *sim.Proc, n int) error {
	switch m.op {
	case uamStore:
		return m.u.Store(p, m.peer, 0, m.data[:n], 0, 0)
	case uamGet:
		tag, err := m.u.Get(p, m.peer, 0, 0, n)
		m.tags = append(m.tags, tag)
		return err
	}
	m.replied = -1
	return m.u.Request(p, m.peer, hEcho, 0, m.data[:n])
}

func (m *uamNode) Recv(p *sim.Proc, timeout time.Duration) (int, error) {
	deadline := p.Now() + timeout
	for m.replied < 0 {
		if timeout >= 0 && p.Now() >= deadline {
			return 0, testbed.ErrTimeout
		}
		m.u.PollWait(p, uamPoll)
	}
	return m.replied, nil
}

func (m *uamNode) Close(p *sim.Proc) error {
	if m.op == uamStore {
		return m.u.Flush(p, m.peer)
	}
	for _, tag := range m.tags {
		if err := m.u.WaitGet(p, tag); err != nil {
			return err
		}
	}
	m.tags = m.tags[:0]
	return nil
}

// UAMPingPong measures the UAM request/reply round-trip time with
// size-byte payloads (Figure 3, "UAM" for ≤32 B and "UAM xfer" beyond).
func UAMPingPong(cfg uam.Config, size, rounds int) time.Duration {
	tb, a, b := uamPair(cfg, nil)
	defer tb.Close()
	rtt, err := testbed.Echo(tb, newUAMNode(a, uamRequest, size, false), newUAMNode(b, uamRequest, size, false), size, rounds, uamReplyTimeout)
	mustNoErr(err, "uam request on a perfect wire")
	return rtt
}

// UAMStoreBandwidth measures GAM block-store streaming bandwidth
// (Figure 4, "UAM store"): after one block has warmed the pipe, blocks of
// the given size are stored to the remote node in a loop and the total
// time measured (§5.2).
func UAMStoreBandwidth(cfg uam.Config, size, count int) float64 {
	return uamBandwidth(cfg, uamStore, size, count)
}

// UAMGetBandwidth measures GAM block-get streaming bandwidth (Figure 4,
// "UAM get"): a series of requests fetches blocks from the remote node
// and the caller waits until all arrive (§5.2).
func UAMGetBandwidth(cfg uam.Config, size, count int) float64 {
	return uamBandwidth(cfg, uamGet, size, count)
}

func uamBandwidth(cfg uam.Config, op, size, count int) float64 {
	tb, a, b := uamPair(cfg, nil)
	defer tb.Close()
	tx := newUAMNode(a, op, size, true)
	tx.tags = make([]uint32, 0, count)
	f, err := testbed.Stream(tb, tx, newUAMNode(b, op, 0, false), count, size, uamPoll)
	mustNoErr(err, "uam stream on a perfect wire")
	return float64(size*count) / (f.End - f.Start).Seconds() / 1e6
}

// AAL5Limit is the theoretical peak payload bandwidth of the fiber for
// size-byte messages, with the 48-byte cell quantization sawtooth
// (Figure 4, "AAL-5 limit").
func AAL5Limit(size int) float64 {
	cells := (size + 8 + 47) / 48
	wire := time.Duration(cells) * 3158 * time.Nanosecond
	return float64(size) / wire.Seconds() / 1e6
}

func mustNoErr(err error, what string) {
	if err != nil {
		panic(fmt.Sprintf("experiments: %s: %v", what, err))
	}
}
