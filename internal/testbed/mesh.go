package testbed

import (
	"fmt"
	"time"

	"unet/internal/sim"
	"unet/internal/unet"
)

// Mesh is an all-to-all fixture: one endpoint per host, a channel between
// every host pair, receive buffers provisioned. It is the workload that
// actually exercises sharded execution — every host both sends and
// receives, so every window carries traffic across every shard boundary.
type Mesh struct {
	TB  *Testbed
	Eps []*unet.Endpoint
	// Chans[i][j] is host i's channel toward host j (zero for i == j).
	Chans [][]unet.ChannelID
	// Stage[i] is the first segment offset past host i's receive buffers,
	// usable as send staging space.
	Stage []int
}

// NewMesh creates one endpoint per host with cfg (zero value for defaults),
// connects every pair, and provisions nbufs receive buffers per endpoint.
func (tb *Testbed) NewMesh(cfg unet.EndpointConfig, nbufs int) (*Mesh, error) {
	n := len(tb.Hosts)
	m := &Mesh{TB: tb, Eps: make([]*unet.Endpoint, n), Chans: make([][]unet.ChannelID, n), Stage: make([]int, n)}
	for i := 0; i < n; i++ {
		pr := tb.Hosts[i].NewProcess("app")
		ep, err := tb.Hosts[i].Kernel.CreateEndpoint(nil, pr, cfg)
		if err != nil {
			return nil, fmt.Errorf("host %d endpoint: %w", i, err)
		}
		m.Eps[i] = ep
		m.Chans[i] = make([]unet.ChannelID, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			ch, err := tb.Manager.Connect(nil, m.Eps[i], m.Eps[j])
			if err != nil {
				return nil, fmt.Errorf("connect %d-%d: %w", i, j, err)
			}
			m.Chans[i][j] = ch.ChanA
			m.Chans[j][i] = ch.ChanB
		}
	}
	for i := 0; i < n; i++ {
		if nbufs > 0 {
			if _, err := m.Eps[i].ProvideRecvBuffers(nil, 0, nbufs); err != nil {
				return nil, fmt.Errorf("host %d buffers: %w", i, err)
			}
		}
		m.Stage[i] = SendBase(m.Eps[i], nbufs)
	}
	return m, nil
}

// StormResult reports one host's share of an all-to-all storm.
type StormResult struct {
	Sent     int
	Received int
	LastRecv time.Duration
}

// Storm runs the all-to-all cell storm: every host sends count size-byte
// messages, striped round-robin over its peers, as fast as its send queue
// accepts them, while concurrently receiving everything its peers throw at
// it. It returns per-host results and the final virtual time.
//
// All mutable state is confined to the owning host's processes (each slot
// of the results slice is written by exactly one receiver), so the storm is
// shard-safe and its results byte-identical at any shard count.
func (m *Mesh) Storm(count, size int) ([]StormResult, time.Duration) {
	n := len(m.Eps)
	res := make([]StormResult, n)
	expect := make([]int, n)
	for i := 0; i < n; i++ {
		c := count
		for k := 0; k < c; k++ {
			expect[(i+1+k%(n-1))%n]++
		}
	}
	for i := 0; i < n; i++ {
		i := i
		ep := m.Eps[i]
		m.TB.Hosts[i].Spawn("recv", func(p *sim.Proc) {
			for got := 0; got < expect[i]; got++ {
				rd := ep.Recv(p)
				ep.Release(p, rd)
				res[i].Received++
				res[i].LastRecv = p.Now()
			}
		})
		m.TB.Hosts[i].Spawn("send", func(p *sim.Proc) {
			for k := 0; k < count; k++ {
				peer := (i + 1 + k%(n-1)) % n
				if err := ep.SendBlock(p, ep.DescAt(m.Chans[i][peer], m.Stage[i], size)); err != nil {
					panic(err)
				}
				res[i].Sent++
			}
		})
	}
	end := m.TB.Eng.RunUntil(time.Duration(count*n)*time.Millisecond + time.Second)
	return res, end
}
