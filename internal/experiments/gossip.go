package experiments

import (
	"encoding/binary"
	"fmt"
	"strings"
	"time"

	"unet/internal/faults"
	"unet/internal/sim"
	"unet/internal/testbed"
	"unet/internal/topo"
	"unet/internal/unet"
)

// GossipConfig shapes the island-overlay gossip experiment: a ring of
// islands (with antipodal chords, topo.Island), one host on each, whose
// hosts flood rumors to their overlay neighbors in fixed rounds, with a
// bounded per-island forward queue (drop-oldest), bounded switch output
// queues, and deterministic failed-neighbor removal — an island whose
// uplink flap keeps it silent for gossipFailAfter rounds is struck from its
// neighbors' send lists and never re-added.
type GossipConfig struct {
	// Islands is the number of island switches.
	Islands int
	// Rounds sets the run's length: every host wakes at r*gossipPeriod,
	// drains its receive queue, and forwards.
	Rounds int

	Shards int
	Seed   int64
}

// The gossip protocol and its faults, at the standard run's values.
const (
	// gossipPeriod is the round cadence.
	gossipPeriod = 300 * time.Microsecond
	// gossipFanout bounds how many queued rumors a host forwards to each
	// live neighbor per round (its own heartbeat rumor always goes out).
	gossipFanout = 4
	// gossipForwardQueue bounds the per-host rumor forward queue; a rumor
	// learned while the queue is full evicts the oldest (drop-oldest, the
	// netislands discipline — fresh gossip beats stale gossip).
	gossipForwardQueue = 16
	// gossipFailAfter is the failure detector: a neighbor silent for more
	// than gossipFailAfter rounds is removed.
	gossipFailAfter = 3
	// gossipQueueCells bounds every island switch's output queues (tail
	// drop).
	gossipQueueCells = 64
	// The uplink of every gossipFlapEvery-th host flaps: down for
	// gossipFlapDown (≈ 6 rounds of silence) every gossipFlapPeriod (one
	// down window per run), offset staggered deterministically per host.
	gossipFlapEvery  = 16
	gossipFlapPeriod = 8 * time.Millisecond
	gossipFlapDown   = 2 * time.Millisecond
)

// DefaultGossip returns the standard configuration for n islands: a
// 3.6 ms run of 12 rounds in which every 16th island goes dark long
// enough to be removed by its neighbors.
func DefaultGossip(islands int) GossipConfig {
	return GossipConfig{Islands: islands, Rounds: 12, Seed: 1}
}

// GossipResult aggregates one gossip run.
type GossipResult struct {
	Hosts     int
	Switches  int
	Rounds    int
	Sent      uint64 // messages handed to the NIs
	Delivered uint64 // messages received and merged
	Learned   uint64 // rumor first-sightings across all hosts
	Removed   int    // neighbor-list removals by the failure detector
	FQDrops   uint64 // forward-queue drop-oldest evictions
	SwDrops   uint64 // switch finite-queue tail drops
	Coverage  int    // hosts that know host 0's rumor at the end
	End       time.Duration
}

// Render formats the result deterministically (golden-comparable).
func (r GossipResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "island gossip: hosts=%d switches=%d rounds=%d end=%v\n", r.Hosts, r.Switches, r.Rounds, r.End)
	fmt.Fprintf(&b, "  sent=%d delivered=%d learned=%d coverage=%d\n", r.Sent, r.Delivered, r.Learned, r.Coverage)
	fmt.Fprintf(&b, "  removed=%d fqdrops=%d swdrops=%d\n", r.Removed, r.FQDrops, r.SwDrops)
	return b.String()
}

// gossipMsg is the size of one rumour on the wire: the origin's host index
// (2 bytes), the round it was sent in, and a pad byte.
const gossipMsg = 4

// gossipPeers returns host h's overlay neighbors on an Islands-ring with
// antipodal chords, in deterministic order (previous, next, chord). It
// mirrors the trunk set topo.Island declares, so the overlay gossips
// exactly along the fabric's one-trunk paths.
func gossipPeers(h, n int) []int {
	if n <= 1 {
		return nil
	}
	if n == 2 {
		return []int{1 - h}
	}
	peers := []int{(h - 1 + n) % n, (h + 1) % n}
	if n >= 4 {
		half := n / 2
		if h < half && h+half < n {
			peers = append(peers, h+half)
		} else if h >= half && h-half < n-half {
			peers = append(peers, h-half)
		}
	}
	return peers
}

// Gossip runs the island gossip experiment. All mutable protocol state is
// confined to each host's own process and messages travel only through
// U-Net channels over the compiled fabric, so the result is byte-identical
// at every shard count and under both sync protocols.
func Gossip(cfg GossipConfig) GossipResult {
	spec := topo.Island(cfg.Islands, 1)
	for j := range spec.Switches {
		spec.Switches[j].QueueCells = gossipQueueCells
	}
	tb := testbed.New(testbed.Config{Topology: spec, Shards: cfg.Shards, Seed: cfg.Seed})
	defer tb.Close()
	n := tb.Topo.Size()

	for i := 0; i < n; i += gossipFlapEvery {
		// Stagger the down windows a little per island; the offsets are
		// pure arithmetic in the host index, so the flap schedule is a
		// function of the topology alone.
		off := gossipPeriod + time.Duration(i%5)*(gossipPeriod/8)
		tb.Topo.Uplink(i).SetInjector(faults.NewFlap(gossipFlapPeriod, gossipFlapDown, off))
	}

	// One endpoint per host; one channel per overlay edge, connected in
	// declared host order so VCI allocation is deterministic.
	eps := make([]*unet.Endpoint, n)
	epCfg := unet.EndpointConfig{SegmentSize: 8 << 10}
	for i := 0; i < n; i++ {
		pr := tb.Hosts[i].NewProcess("app")
		ep, err := tb.Hosts[i].Kernel.CreateEndpoint(nil, pr, epCfg)
		mustNoErr(err, "gossip endpoint")
		eps[i] = ep
	}
	chans := make([]map[int]unet.ChannelID, n) // host → peer → channel
	for i := range chans {
		chans[i] = make(map[int]unet.ChannelID)
	}
	for i := 0; i < n; i++ {
		for _, peer := range gossipPeers(i, n) {
			if peer < i {
				continue // edge already connected from the lower host
			}
			ch, err := tb.Manager.Connect(nil, eps[i], eps[peer])
			mustNoErr(err, "gossip connect")
			chans[i][peer] = ch.ChanA
			chans[peer][i] = ch.ChanB
		}
	}

	stats := make([]GossipResult, n) // per-host counters, merged at the end
	for i := 0; i < n; i++ {
		i := i
		ep := eps[i]
		peers := gossipPeers(i, n)
		chanNbr := make(map[unet.ChannelID]int, len(peers))
		nbrChan := make([]unet.ChannelID, len(peers))
		for nb, peer := range peers {
			chanNbr[chans[i][peer]] = nb
			nbrChan[nb] = chans[i][peer]
		}
		tb.Hosts[i].Spawn("gossip", func(p *sim.Proc) {
			st := &stats[i]
			// A bit per origin per host: the experiment's one islands² term.
			known := make([]uint64, (n+63)/64)
			known[i/64] |= 1 << (i % 64)
			fq := []uint16{}
			lastHeard := make([]int, len(peers))
			alive := make([]bool, len(peers))
			for nb := range alive {
				alive[nb] = true
			}
			// Rotating staging slots: the inline payload is copied out by
			// the NI asynchronously, so a slot is reused only long after its
			// send has left the queue.
			stage := unet.NewStaging(0, 512*gossipMsg)
			for r := 0; r < cfg.Rounds; r++ {
				if target := time.Duration(r) * gossipPeriod; target > p.Now() {
					p.Sleep(target - p.Now())
				}
				for {
					rd, ok := ep.PollRecv(p)
					if !ok {
						break
					}
					if len(rd.Inline) >= 2 {
						st.Delivered++
						origin := int(binary.BigEndian.Uint16(rd.Inline))
						if nb, ok := chanNbr[rd.Channel]; ok {
							lastHeard[nb] = r
						}
						if origin < n && known[origin/64]&(1<<(origin%64)) == 0 {
							known[origin/64] |= 1 << (origin % 64)
							st.Learned++
							fq = append(fq, uint16(origin))
							if len(fq) > gossipForwardQueue {
								fq = fq[1:]
								st.FQDrops++
							}
						}
					}
					ep.Release(p, rd)
				}
				for nb := range peers {
					if alive[nb] && r-lastHeard[nb] > gossipFailAfter {
						alive[nb] = false
						st.Removed++
					}
				}
				batch := []uint16{uint16(i)}
				for take := gossipFanout; take > 0 && len(fq) > 0; take-- {
					batch = append(batch, fq[0])
					fq = fq[1:]
				}
				for nb := range peers {
					if !alive[nb] {
						continue
					}
					for _, origin := range batch {
						var msg [gossipMsg]byte
						binary.BigEndian.PutUint16(msg[:], origin)
						msg[2] = byte(r)
						off := stage.Next(gossipMsg)
						mustNoErr(ep.Compose(nil, off, msg[:]), "gossip stage")
						mustNoErr(ep.SendBlock(p, ep.DescAt(nbrChan[nb], off, gossipMsg)), "gossip send")
						st.Sent++
					}
				}
			}
			if known[0]&1 != 0 {
				st.Coverage = 1
			}
		})
	}

	end := tb.Eng.RunUntil(time.Duration(cfg.Rounds)*gossipPeriod + 10*time.Millisecond)
	out := GossipResult{Hosts: n, Switches: len(spec.Switches), Rounds: cfg.Rounds, End: end, SwDrops: tb.Topo.TotalQueueDrops()}
	for i := range stats {
		out.Sent += stats[i].Sent
		out.Delivered += stats[i].Delivered
		out.Learned += stats[i].Learned
		out.Removed += stats[i].Removed
		out.FQDrops += stats[i].FQDrops
		out.Coverage += stats[i].Coverage
	}
	return out
}
