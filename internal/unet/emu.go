package unet

import (
	"encoding/binary"
	"fmt"

	"unet/internal/sim"
)

// Kernel-emulated U-Net endpoints (§3.5). Communication segments and
// message queues are scarce, and many applications do not need full U-Net
// performance, so the kernel multiplexes any number of emulated endpoints
// onto a single real endpoint that it owns. To the application the API
// mirrors a regular endpoint, but every operation is a system call and the
// data crosses an extra kernel copy — exactly the performance difference
// the paper predicts, demonstrated by the ablations row of the evaluation.

// emuHeaderSize prefixes each emulated message: destination and source
// emulated-endpoint identifiers.
const emuHeaderSize = 4

// emuMTU bounds one emulated message (the kernel's staging buffers are a
// shared resource).
const emuMTU = 8192

// emuTxRegion is the size of the kernel segment's transmit staging region;
// emuRecvBufs receive buffers follow it.
const (
	emuTxRegion = 160 << 10
	emuRecvBufs = 64
)

// EmuChannelID names a channel registered on an emulated endpoint.
type EmuChannelID int

// EmuRecv is one message delivered to an emulated endpoint. Data lives in a
// kernel staging buffer on loan to the application: it is valid until the
// owner's next Recv or successful PollRecv on the same endpoint, which
// reclaims it (the §3.5 emulation's analogue of a socket buffer). Retain by
// copying.
type EmuRecv struct {
	Channel EmuChannelID
	Data    []byte
	slab    []byte // the staging buffer backing Data, recycled on the next Recv
}

type emuChan struct {
	kch      ChannelID // kernel endpoint channel toward the peer host
	remoteID uint16
	open     bool
}

// EmuEndpoint is a kernel-emulated U-Net endpoint (§3.5).
type EmuEndpoint struct {
	k       *Kernel
	owner   *Process
	id      uint16
	chans   []emuChan
	rx      *sim.FIFO[EmuRecv]
	drops   uint64
	pending []byte // last delivered slab, reclaimed on the next Recv/PollRecv
}

type emuState struct {
	proc   *Process
	kep    *Endpoint
	emus   map[uint16]*EmuEndpoint
	nextID uint16
	peerCh map[*Host]ChannelID
	// tx is the transmit staging region at the base of the kernel segment,
	// large enough that a buffer cannot still be queued when it comes round
	// again (send queue cap × emuMTU < region size).
	tx Staging
	// pool recycles receive staging slabs (out through EmuRecv, back on the
	// consumer's next Recv) and transmit packet-assembly buffers, keeping
	// the emulation path allocation-free in steady state like the real one.
	pool Pool[byte]
}

// EnableEmulation sets up the kernel's real endpoint and service process.
// Idempotent.
func (k *Kernel) EnableEmulation(p *sim.Proc) error {
	if k.emu != nil {
		return nil
	}
	owner := k.host.NewProcess("kernel")
	cfg := EndpointConfig{
		SegmentSize:  512 << 10,
		RecvBufSize:  4160,
		SendQueueCap: 16,
		RecvQueueCap: 128,
		FreeQueueCap: 128,
	}
	if need := emuTxRegion + emuRecvBufs*cfg.RecvBufSize; need > cfg.SegmentSize {
		return fmt.Errorf("unet: enabling emulation: staging region and receive buffers need %d bytes of a %d-byte segment", need, cfg.SegmentSize)
	}
	// The kernel is not subject to its own user-process limits.
	saved := k.limits
	k.limits = Limits{MaxEndpoints: saved.MaxEndpoints + 1, MaxSegmentBytes: cfg.SegmentSize, MaxQueueCap: 1024}
	kep, err := k.CreateEndpoint(p, owner, cfg)
	k.limits = saved
	if err != nil {
		return fmt.Errorf("unet: enabling emulation: %w", err)
	}
	st := &emuState{
		proc:   owner,
		kep:    kep,
		emus:   make(map[uint16]*EmuEndpoint),
		peerCh: make(map[*Host]ChannelID),
		tx:     NewStaging(0, emuTxRegion),
	}
	// Receive buffers occupy the rest of the kernel segment.
	if _, err := kep.ProvideRecvBuffers(p, emuTxRegion, emuRecvBufs); err != nil {
		return err
	}
	k.emu = st
	k.host.Spawn("kernel-emu", k.emuService)
	return nil
}

// emuService is the kernel process that demultiplexes arrivals on the real
// endpoint to emulated endpoints.
func (k *Kernel) emuService(p *sim.Proc) {
	st := k.emu
	for {
		rd := st.kep.Recv(p)
		// The extra kernel copy emulation costs, into a pooled staging
		// slab. A single-cell arrival is gathered unbilled (nil process):
		// it already lies in the kernel's receive queue entry, and the
		// ablation row's figure was calibrated without a charge for it.
		payer := p
		if rd.Inline != nil {
			payer = nil
		}
		data := st.kep.Gather(payer, rd, st.pool.Get())
		if len(data) < emuHeaderSize {
			st.pool.Put(data)
			continue
		}
		dst := binary.BigEndian.Uint16(data[0:2])
		src := binary.BigEndian.Uint16(data[2:4])
		ee, ok := st.emus[dst]
		if !ok {
			st.pool.Put(data)
			continue
		}
		ch, ok := ee.chanFrom(rd.Channel, src)
		if !ok {
			st.pool.Put(data)
			continue
		}
		if !ee.rx.TryPut(EmuRecv{Channel: ch, Data: data[emuHeaderSize:], slab: data}) {
			ee.drops++
			st.pool.Put(data)
		}
	}
}

// chanFrom maps (kernel channel, remote emu id) back to the local channel.
func (ee *EmuEndpoint) chanFrom(kch ChannelID, remote uint16) (EmuChannelID, bool) {
	for i, c := range ee.chans {
		if c.open && c.kch == kch && c.remoteID == remote {
			return EmuChannelID(i), true
		}
	}
	return 0, false
}

// CreateEmuEndpoint allocates an emulated endpoint for owner. Unlike real
// endpoints these consume no NI resources (§3.5), so no device or segment
// limits apply.
func (k *Kernel) CreateEmuEndpoint(p *sim.Proc, owner *Process) (*EmuEndpoint, error) {
	p.Charge(k.host.Params.Syscall)
	if k.emu == nil {
		return nil, fmt.Errorf("unet: emulation not enabled on host %s", k.host.Name)
	}
	st := k.emu
	st.nextID++
	ee := &EmuEndpoint{k: k, owner: owner, id: st.nextID, rx: sim.NewFIFO[EmuRecv](256)}
	st.emus[ee.id] = ee
	return ee, nil
}

// EmuConnect builds a full-duplex channel between two emulated endpoints,
// reusing (or creating) the single kernel-to-kernel channel between the two
// hosts.
func EmuConnect(p *sim.Proc, m *Manager, a, b *EmuEndpoint) (EmuChannelID, EmuChannelID, error) {
	ka, kb := a.k, b.k
	if ka.emu == nil || kb.emu == nil {
		return 0, 0, fmt.Errorf("unet: emulation not enabled")
	}
	kchA, okA := ka.emu.peerCh[kb.host]
	kchB, okB := kb.emu.peerCh[ka.host]
	if !okA || !okB {
		ch, err := m.Connect(p, ka.emu.kep, kb.emu.kep)
		if err != nil {
			return 0, 0, err
		}
		kchA, kchB = ch.ChanA, ch.ChanB
		ka.emu.peerCh[kb.host] = kchA
		kb.emu.peerCh[ka.host] = kchB
	}
	a.chans = append(a.chans, emuChan{kch: kchA, remoteID: b.id, open: true})
	b.chans = append(b.chans, emuChan{kch: kchB, remoteID: a.id, open: true})
	return EmuChannelID(len(a.chans) - 1), EmuChannelID(len(b.chans) - 1), nil
}

// Send transmits data on ch. The call traps into the kernel, copies the
// message into a kernel staging buffer and queues it on the kernel's real
// endpoint — the §3.5 cost structure.
func (ee *EmuEndpoint) Send(p *sim.Proc, ch EmuChannelID, data []byte) error {
	k := ee.k
	st := k.emu
	if int(ch) < 0 || int(ch) >= len(ee.chans) || !ee.chans[ch].open {
		return ErrNoChannel
	}
	if len(data) > emuMTU {
		return ErrTooLong
	}
	p.Charge(k.host.Params.Syscall)
	c := ee.chans[ch]
	// Assemble in a pooled buffer, not a shared scratch: Compose can park
	// this process on its copy charge, letting another process enter Send
	// meanwhile. The buffer is done once Compose has copied it into the
	// staging region, so it goes back to the pool before SendBlock blocks.
	pkt := st.pool.Get()
	pkt = binary.BigEndian.AppendUint16(pkt, c.remoteID)
	pkt = binary.BigEndian.AppendUint16(pkt, ee.id)
	pkt = append(pkt, data...)
	off := st.tx.Next(len(pkt))
	err := st.kep.Compose(p, off, pkt)
	n := len(pkt)
	st.pool.Put(pkt)
	if err != nil {
		return err
	}
	return st.kep.SendBlock(p, SendDesc{Channel: c.kch, Offset: off, Length: n})
}

// reclaim returns the previously delivered staging slab to the kernel pool;
// the application's window on that Data has closed.
func (ee *EmuEndpoint) reclaim() {
	if ee.pending != nil {
		ee.k.emu.pool.Put(ee.pending)
		ee.pending = nil
	}
}

// Recv blocks for the next message; the data has already been copied into
// kernel memory, and the final copy to the application plus the trap are
// charged here. The returned Data remains valid until the next Recv or
// successful PollRecv on this endpoint.
func (ee *EmuEndpoint) Recv(p *sim.Proc) EmuRecv {
	r := ee.rx.Get(p)
	ee.reclaim()
	ee.pending = r.slab
	p.Charge(ee.k.host.Params.Syscall)
	p.Charge(ee.k.host.Params.CopyCost(len(r.Data)))
	return r
}

// PollRecv checks for a message without blocking (still a trap).
func (ee *EmuEndpoint) PollRecv(p *sim.Proc) (EmuRecv, bool) {
	p.Charge(ee.k.host.Params.Syscall)
	r, ok := ee.rx.TryGet()
	if ok {
		ee.reclaim()
		ee.pending = r.slab
		p.Charge(ee.k.host.Params.CopyCost(len(r.Data)))
	}
	return r, ok
}

// Drops reports messages discarded because the emulated receive queue was
// full.
func (ee *EmuEndpoint) Drops() uint64 { return ee.drops }
