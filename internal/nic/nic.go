// Package nic provides the network-interface models behind U-Net: the Fore
// SBA-200 running the paper's custom firmware (§4.2.2), the same board
// running Fore's original firmware (the §4.2.1 baseline), and the simpler
// programmed-I/O SBA-100 (§4.1).
//
// All three share one processing engine, Device: a simulated on-board (or,
// for the SBA-100, trap-level host) processor that drains endpoint send
// queues, segments messages into AAL5 cells onto the uplink, reassembles
// arriving cells, and delivers descriptors into endpoint receive queues.
// The processor is a state machine the engine steps as a plain event — the
// firmware's polling loop (§4.2.2) — not a sim.Proc: nothing in it blocks.
// The models differ only in their Params cost tables and fast-path
// capabilities; every constant is calibrated against a measurement quoted
// in the paper (see the constructors in params.go).
package nic

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"unet/internal/atm"
	"unet/internal/fabric"
	"unet/internal/sim"
	"unet/internal/unet"
)

// directHeaderSize prefixes direct-access PDUs with the 64-bit deposit
// offset (§3.6).
const directHeaderSize = 8

// Stats counts device-level events.
type Stats struct {
	CellsOut     uint64
	CellsIn      uint64
	PDUsOut      uint64
	PDUsIn       uint64
	InFIFODrops  uint64 // cells lost to input FIFO overflow
	BadPDUs      uint64 // AAL5 CRC/length failures (lost or corrupt cells)
	CrcDrops     uint64 // subset of BadPDUs: CRC-32 mismatch (corrupt payload)
	UnknownVCIs  uint64 // cells on unregistered VCIs
	DirectDenied uint64 // direct-access PDUs to non-direct endpoints
	ClosedDrops  uint64 // complete PDUs whose channel closed while the processor was charging for them
	// Doorbells counts KickTx rings; DoorbellsCoalesced counts the rings
	// absorbed by an already-pending doorbell (the processor learns of the
	// whole burst from one signal, as the SBA-200 firmware's polling loop
	// picks up every queued descriptor per sweep, §4.2.2).
	Doorbells          uint64
	DoorbellsCoalesced uint64
}

// vciEntry is one row of the dense demultiplex table: the route to the
// owning endpoint plus the per-VCI AAL5 reassembly state, all in one cache
// line's reach. Indexing by VCI replaces the two map lookups the receive
// path used to make per cell, and embedding the reassembler removes the
// per-VCI lazy allocation.
type vciEntry struct {
	ep     *unet.Endpoint
	ch     unet.ChannelID
	open   bool
	direct bool
	reasm  atm.Reassembler
}

// arrival is one cell in the input FIFO, tagged with its wire arrival time.
// Train intake stamps cells with future arrival times; the processor never
// consumes a cell before its stamp.
type arrival struct {
	c      atm.Cell
	arrive time.Duration
}

// delivery is the observable action the processor has charged for on its
// cursor and not yet performed: step sleeps to the cursor, then perform
// carries it out. It names its endpoint by value, not by table row — the
// row can be closed, reopened or moved while the processor sleeps.
type delivery struct {
	kind    uint8
	vci     atm.VCI
	ch      unet.ChannelID
	ep      *unet.Endpoint
	payload []byte
}

const (
	pendNone     = iota
	pendBadPDU   // AAL5 validation failed: count the drop at the endpoint
	pendInline   // single-cell fast path: the slab rides in the descriptor
	pendBuffered // scatter into free-queue buffers, slab back to the arena
	pendDirect   // §3.6: copy to the offset the sender named, slab back to the arena
)

// Device is a NIC model servicing the U-Net endpoints of one host. It
// implements unet.Device.
type Device struct {
	name   string
	e      *sim.Engine
	host   *unet.Host
	params Params
	uplink *fabric.Link

	// Input FIFO: a power-of-two ring of timestamped cells. Kept inline
	// (rather than a sim.FIFO) so whole cell trains can be accepted in one
	// call with exact overflow accounting.
	in    []arrival
	ihead int
	inn   int

	// The on-board processor (step). cursor is its position in virtual time:
	// at or ahead of the clock while it works, stale while it is idle. pend is
	// the action waiting for the clock to reach the cursor. idle means no
	// event of the processor's is queued and the next doorbell or arrival
	// must queue one (wake); timeout is the wake-up an idle processor armed
	// for a head cell stamped in the future.
	cursor  time.Duration
	pend    delivery
	started bool
	idle    bool
	timeout sim.Timer

	eps   []*unet.Endpoint
	txRR  int
	stats Stats

	// Dense VCI demultiplex table, indexed by VCI. Receive VCIs are labels
	// of this device's own downlink, lowest free first, so the table is as
	// long as the channels open here. lastVCI/lastEnt cache the most recent
	// lookup: cells arrive in VCI-contiguous trains, so the cache hits for
	// every cell of a multi-cell PDU after the first. Any table mutation
	// (open/close/grow) must invalidate the cache — entries move when the
	// slice reallocates.
	table   []vciEntry
	lastVCI atm.VCI
	lastEnt *vciEntry

	// txDoorbell latches KickTx rings between processor sweeps: set when an
	// endpoint enqueues send work, cleared only by a send scan that finds
	// every queue empty. While clear, the processor skips the O(endpoints)
	// scan entirely. Virtual time is unaffected — the scan is cost-free and
	// a clear doorbell means it would have found nothing.
	txDoorbell bool

	// arena recycles inline payload slabs (single-cell fast path and
	// reassembly buffers); offPool recycles the Buffers offset lists of
	// multi-buffer descriptors. Both flow out through RecvDescs and back
	// via Endpoint.Gather/Release → RecycleInline/RecycleOffsets (DESIGN.md
	// §10).
	arena   unet.Pool[byte]
	offPool unet.Pool[int]

	// dcFree is a free list of delayed-cell boxes for the DeliverTrain
	// overflow fallback, replacing a per-cell closure allocation.
	dcFree *delayedCell

	txCells []atm.Cell // segmentation scratch, reused across sends
	txData  []byte     // DMA/header staging scratch, reused across sends
}

var _ unet.Device = (*Device)(nil)
var _ fabric.TrainSink = (*Device)(nil)

// New creates a device sending on uplink. Call Start (or use Attach) to
// run its processor.
func New(e *sim.Engine, host *unet.Host, params Params, uplink *fabric.Link) *Device {
	if uplink.Engine() != e {
		panic(fmt.Sprintf("nic: %s/%s transmits on a foreign shard's uplink", host.Name, params.Name))
	}
	d := &Device{
		name:   host.Name + "/" + params.Name,
		e:      e,
		host:   host,
		params: params,
		uplink: uplink,
	}
	return d
}

// Attach wires a device of the given parameters to a fabric attachment
// point (a topo-compiled fabric's host index): it creates the device, registers it as the host's cell sink and
// the host's device, records the host with the manager, and starts the
// on-board processor.
func Attach(h *unet.Host, cl fabric.Network, m *unet.Manager, port int, params Params) *Device {
	d := New(h.Eng, h, params, cl.Uplink(port))
	cl.SetHostSink(port, d)
	h.SetDevice(d)
	if m != nil {
		m.Register(h, port)
	}
	d.Start()
	return d
}

// Start schedules the processor's first step at the current virtual time.
func (d *Device) Start() {
	if d.started {
		panic(fmt.Sprintf("nic: %s started twice", d.name))
	}
	d.started = true
	d.e.AtArg(d.e.Now(), stepDevice, d)
}

// Stats returns a snapshot of the device counters.
func (d *Device) Stats() Stats { return d.stats }

// --- unet.Device management interface ---

// AttachEndpoint begins servicing ep.
func (d *Device) AttachEndpoint(ep *unet.Endpoint) error {
	if len(d.eps) >= d.params.MaxEndpoints {
		return fmt.Errorf("nic %s: endpoint table full (%d)", d.name, d.params.MaxEndpoints)
	}
	d.eps = append(d.eps, ep)
	return nil
}

// DetachEndpoint stops servicing ep and forgets its channels.
func (d *Device) DetachEndpoint(ep *unet.Endpoint) {
	for i, e := range d.eps {
		if e == ep {
			d.eps = append(d.eps[:i], d.eps[i+1:]...)
			break
		}
	}
	for i := range d.table {
		if ent := &d.table[i]; ent.open && ent.ep == ep {
			d.closeEntry(ent)
		}
	}
	d.lastEnt = nil
}

// OpenChannel registers the receive tag rx as belonging to (ep, ch).
func (d *Device) OpenChannel(ep *unet.Endpoint, ch unet.ChannelID, tx, rx atm.VCI) error {
	if n := int(rx) + 1 - len(d.table); n > 0 {
		// append's amortised growth: a device opens channels one rising VCI
		// at a time, and growing to exactly rx+1 copied the table on every call.
		d.table = append(d.table, make([]vciEntry, n)...)
	}
	ent := &d.table[rx]
	if ent.open && ent.ep != ep {
		return errors.New("nic: VCI already registered to another endpoint")
	}
	ent.ep, ent.ch, ent.open = ep, ch, true
	ent.reasm.SetSource(&d.arena)
	d.lastEnt = nil // table may have reallocated
	return nil
}

// closeEntry clears one table row, returning any partial-PDU slab to the
// arena.
func (d *Device) closeEntry(ent *vciEntry) {
	ent.reasm.Reset()
	*ent = vciEntry{}
}

// CloseChannel removes the tag registration.
func (d *Device) CloseChannel(ep *unet.Endpoint, ch unet.ChannelID) {
	for i := range d.table {
		if ent := &d.table[i]; ent.open && ent.ep == ep && ent.ch == ch {
			d.closeEntry(ent)
		}
	}
	d.lastEnt = nil
}

// TableLen reports the demux table's length — set-up state, bounded by the
// reserved labels plus the channels open on this device.
func (d *Device) TableLen() int { return len(d.table) }

// route looks up the table entry for v, or nil if the VCI is unregistered.
//
//unetlint:hotpath per-cell demux lookup; runs once per arriving cell
func (d *Device) route(v atm.VCI) *vciEntry {
	if d.lastEnt != nil && v == d.lastVCI {
		return d.lastEnt
	}
	if int(v) >= len(d.table) || !d.table[v].open {
		return nil
	}
	d.lastVCI, d.lastEnt = v, &d.table[v]
	return d.lastEnt
}

// KickTx wakes the processor: ep's send queue became non-empty. Rings are
// coalesced through the txDoorbell latch — if one is already pending, the
// processor will pick this descriptor up in the same sweep.
//
//unetlint:hotpath doorbell ring; runs on every user-level send
func (d *Device) KickTx(ep *unet.Endpoint) {
	d.stats.Doorbells++
	if d.txDoorbell {
		d.stats.DoorbellsCoalesced++
		return
	}
	d.txDoorbell = true
	d.wake()
}

// SingleCellMax reports the inline-descriptor fast-path limit.
func (d *Device) SingleCellMax() int { return d.params.SingleCellMax }

// MTU reports the largest message the device segments.
func (d *Device) MTU() int { return d.params.MTU }

// MaxEndpoints reports the endpoint table size.
func (d *Device) MaxEndpoints() int { return d.params.MaxEndpoints }

// push appends a timestamped cell to the input ring, growing it as needed
// up to the FIFO depth.
func (d *Device) push(a arrival) {
	if d.inn == len(d.in) {
		//unetlint:allow hotpathalloc the ring doubles until it holds the deepest the input FIFO has been, at most InFIFODepth, and then never grows again
		grown := make([]arrival, max(8, 2*len(d.in)))
		for i := 0; i < d.inn; i++ {
			grown[i] = d.in[(d.ihead+i)&(len(d.in)-1)]
		}
		d.in = grown
		d.ihead = 0
	}
	d.in[(d.ihead+d.inn)&(len(d.in)-1)] = a
	d.inn++
}

// pop removes the oldest queued cell.
func (d *Device) pop() arrival {
	a := d.in[d.ihead]
	d.in[d.ihead] = arrival{}
	d.ihead = (d.ihead + 1) & (len(d.in) - 1)
	d.inn--
	return a
}

// DeliverCell implements fabric.CellSink: a cell arrived off the fiber
// into the input FIFO. Overflow drops the cell, as the real FIFO would.
//
//unetlint:allow costcharge FIFO intake is free; per-cell processing cost is charged by the processor loop in processCell
func (d *Device) DeliverCell(c atm.Cell) {
	if d.inn >= d.params.InFIFODepth {
		d.stats.InFIFODrops++
		return
	}
	d.push(arrival{c: c, arrive: d.e.Now()})
	d.wake()
}

// DeliverTrain implements fabric.TrainSink: a back-to-back run of cells is
// queued in one call, each stamped with its arrival time (cells[i] arrives
// at first + i*spacing; the processor will not touch it earlier).
//
// Accepting the whole train up front is exact as long as it fits: FIFO
// occupancy can only fall between now and the later cells' arrivals (the
// processor drains, nothing else fills), so per-cell delivery could not
// have dropped any of these cells either. When the train does not fit, fall
// back to per-cell delivery events, which reproduce overflow drops
// cell-by-cell exactly as the unbatched fabric did.
//
//unetlint:allow costcharge FIFO intake is free; per-cell processing cost is charged by the processor loop in processCell
func (d *Device) DeliverTrain(cells []atm.Cell, first, spacing time.Duration) {
	if d.inn+len(cells) > d.params.InFIFODepth {
		for k := 1; k < len(cells); k++ {
			d.deliverCellAt(cells[k], first+time.Duration(k)*spacing)
		}
		d.DeliverCell(cells[0])
		return
	}
	for i := range cells {
		d.push(arrival{c: cells[i], arrive: first + time.Duration(i)*spacing})
	}
	d.wake()
}

// delayedCell boxes one cell scheduled for future delivery, recycled
// through the device's free list so the DeliverTrain overflow fallback
// allocates nothing in steady state.
type delayedCell struct {
	d    *Device
	c    atm.Cell
	next *delayedCell
}

// fireDelayedCell is the static AtArg callback delivering a boxed cell.
// The box returns to the free list before delivery so the handler chain
// can reuse it immediately.
func fireDelayedCell(a any) {
	dc := a.(*delayedCell)
	d, c := dc.d, dc.c
	dc.d = nil
	dc.next = d.dcFree
	d.dcFree = dc
	d.DeliverCell(c)
}

// deliverCellAt schedules a single-cell delivery at a future instant using
// a pooled box and a closure-free engine callback.
func (d *Device) deliverCellAt(c atm.Cell, at time.Duration) {
	dc := d.dcFree
	if dc == nil {
		//unetlint:allow hotpathalloc free-list growth: the list reaches the overflow fallback's peak of cells in flight and every later box is recycled
		dc = &delayedCell{}
	} else {
		d.dcFree = dc.next
		dc.next = nil
	}
	dc.d, dc.c = d, c
	d.e.AtArg(at, fireDelayedCell, dc)
}

// --- processing loop ---

// step is the on-board processor (the i960 in the SBA-200; the trap-level
// host CPU in the SBA-100): it alternates draining the input FIFO —
// reception has priority, as in the firmware — with servicing one send
// descriptor per round from the endpoints, round-robin.
//
// Per-cell costs are accounted arithmetically on the cost cursor rather
// than with one sleep per cell: the cursor advances by each cell's cost,
// and the clock is brought up to it (syncTo) only before an observable
// action — delivering a PDU, popping a send descriptor, or going idle. The
// observable timeline is identical to sleep-per-cell.
//
// step runs as an event and cannot block. Where syncTo cannot move the
// clock in place it has queued step again at the cursor and step returns;
// everything it needs to carry on — cursor, pend, the FIFO, the doorbell —
// is in the device, so re-entry is just the top of the loop. Every event
// it queues sits where a process written as a blocking loop would have
// queued its resume event, so nothing else in the simulation can tell.
//
//unetlint:hotpath the firmware loop; runs on every burst of cells and every send
func (d *Device) step() {
	defer d.namePanic()
	d.cursor = d.e.Now() // a wake from idle; after a sleep the two already agree
	for {
		switch {
		case d.pend.kind != pendNone:
			if !d.syncTo() {
				return
			}
			d.perform()
		case d.inn > 0 && d.in[d.ihead].arrive <= d.cursor:
			// Every cell that has arrived by the processor's position, cells
			// that landed during a sleep included — the cells a sleep-per-cell
			// processor would find in its input FIFO.
			d.processCell(d.pop().c)
		case d.cursor > d.e.Now():
			if !d.syncTo() {
				return
			}
		case d.txDoorbell:
			// The send scan runs only while the doorbell is pending: a clear
			// doorbell guarantees every send queue is empty (the last scan
			// found them so, and enqueues since would have rung). Clearing
			// only on an empty scan keeps the service order — and hence the
			// timeline — identical to the unconditional scan.
			if ep := d.nextTxEndpoint(); ep != nil {
				d.handleTx(ep)
				// Here, not in the case above: cells due by the new cursor
				// wait until the clock has passed the burst.
				if !d.syncTo() {
					return
				}
			} else {
				d.txDoorbell = false
			}
		default:
			if d.inn > 0 {
				// The head cell is stamped in the future: wake when it
				// arrives, unless a doorbell or an earlier cell wakes first.
				d.timeout = d.e.AtArg(d.in[d.ihead].arrive, timeoutDevice, d)
			}
			d.idle = true
			return
		}
	}
}

// namePanic re-raises a panic inside the processor with the device's name,
// as sim.Proc does for a process: on a 1 024-host run the stack alone does
// not say whose NIC failed.
func (d *Device) namePanic() {
	if r := recover(); r != nil {
		panic(fmt.Sprintf("nic: %s processor panicked: %v", d.name, r))
	}
}

// stepDevice is the processor's event: its start, a wake from idle and the
// far end of a sleep. A wake cancels the idle timeout here, when it fires,
// not when the doorbell rang; otherwise the handle is spent and Cancel does
// nothing.
func stepDevice(a any) {
	d := a.(*Device)
	d.timeout.Cancel()
	d.step()
}

// timeoutDevice fires when an idle processor's future-stamped head cell
// arrives. If a doorbell got in first the wake it queued is still to come
// and this does nothing.
func timeoutDevice(a any) {
	if d := a.(*Device); d.idle {
		d.idle = false
		d.step()
	}
}

// wake queues a step for an idle processor at the current instant; one that
// is working or asleep finds the new work itself.
func (d *Device) wake() {
	if d.idle {
		d.idle = false
		d.e.AtArg(d.e.Now(), stepDevice, d)
	}
}

// syncTo brings the virtual clock up to the cost cursor before an observable
// action. It reports false when step has been queued at the cursor instead
// and must return (sim.Engine.SleepTo); a cursor the clock has already
// reached costs nothing, not even a sequence number.
func (d *Device) syncTo() bool {
	return d.cursor <= d.e.Now() || d.e.SleepTo(d.cursor, stepDevice, d)
}

func (d *Device) nextTxEndpoint() *unet.Endpoint {
	n := len(d.eps)
	for i := 0; i < n; i++ {
		ep := d.eps[(d.txRR+i)%n]
		if ep.DevSendPending() {
			d.txRR = (d.txRR + i + 1) % n
			return ep
		}
	}
	return nil
}

// handleTx services one send descriptor: the single-cell fast path stores
// descriptor-resident data straight into a cell (§4.2.2); larger messages
// are fetched from the communication segment (host-memory DMA, charged in
// TxFixed/TxPerCell) and segmented. The uplink's bounded output FIFO
// paces the processor when the fiber backs up.
func (d *Device) handleTx(ep *unet.Endpoint) {
	desc, ok := ep.DevPopSend()
	if !ok {
		return
	}
	tx, _, ok := ep.ChannelVCIs(desc.Channel)
	if !ok {
		return // channel closed while queued
	}
	d.stats.PDUsOut++
	if desc.Inline != nil && d.params.SingleCellMax > 0 {
		d.cursor += d.params.TxSingleCell
		d.txCells = atm.SegmentAppend(d.txCells[:0], tx, desc.Inline)
		d.sendCells(d.txCells)
		return
	}
	d.txData = d.txData[:0]
	if desc.Direct {
		d.txData = binary.BigEndian.AppendUint64(d.txData, uint64(desc.DstOffset))
	}
	if desc.Inline != nil {
		d.txData = append(d.txData, desc.Inline...) // fast path absent on this device
	} else {
		d.txData = ep.DevReadSegmentAppend(d.txData, desc.Offset, desc.Length)
	}
	d.cursor += d.params.TxFixed
	d.txCells = atm.SegmentAppend(d.txCells[:0], tx, d.txData)
	if desc.Direct {
		for i := range d.txCells {
			d.txCells[i].Direct = true
		}
	}
	d.sendCells(d.txCells)
}

// sendCells puts cells on the uplink. The per-cell processor cost and the
// output-FIFO stall (formerly a Sleep and a WaitReady per cell) are folded
// into the cursor in closed form — the device is the uplink's only sender,
// so its committed-work horizon (NextFree) is fully known — and each cell
// is enqueued with SendAt at exactly the time Send would have been called.
// The caller's synchronizing sleep lands the processor where the
// sleep-per-cell loop would have left it.
func (d *Device) sendCells(cells []atm.Cell) {
	limit := time.Duration(d.params.OutFIFOCells) * d.uplink.Params().CellTime
	for i := range cells {
		d.cursor += d.params.TxPerCell
		if ready := d.uplink.NextFree() - limit; d.cursor < ready {
			d.cursor = ready // stall: output FIFO full
		}
		d.uplink.SendAt(cells[i], d.cursor)
		d.stats.CellsOut++
	}
}

// processCell accounts and processes one arriving cell, advancing the cost
// cursor. Single-cell PDUs take the receive fast path: deposited directly
// into the next receive-queue entry with no buffer allocation (§4.2.2).
// Multi-cell PDUs accumulate per VCI and are scattered into free-queue
// buffers on completion. Mid-PDU cells have no observable effect, so their
// cost is pure cursor arithmetic; a completed (or failed) PDU is left in
// pend, and reaches its endpoint once the clock has reached the cursor.
//
//unetlint:hotpath per-cell receive demux + SAR; the steady-state receive path
func (d *Device) processCell(c atm.Cell) {
	d.stats.CellsIn++
	ent := d.route(c.VCI)
	if ent == nil {
		d.stats.UnknownVCIs++
		return
	}
	fastPath := ent.reasm.Pending() == 0 && c.EOP && !c.Direct && d.params.SingleCellMax > 0
	if fastPath {
		d.cursor += d.params.RxSingleCell
	} else {
		d.cursor += d.params.RxPerCell
	}
	if ent.reasm.Pending() == 0 {
		ent.direct = c.Direct
	}
	payload, err := ent.reasm.Add(c)
	if err != nil {
		// Add has already reset the reassembler, returning its slab to the
		// arena — the drop path holds no pooled state past this point.
		d.stats.BadPDUs++
		if errors.Is(err, atm.ErrBadCRC) {
			d.stats.CrcDrops++
		}
		d.pend = delivery{kind: pendBadPDU, vci: c.VCI, ch: ent.ch, ep: ent.ep}
		return
	}
	if payload == nil {
		return // mid-PDU
	}
	// The reassembler drew its slab from the arena and has detached it:
	// from here the slab is pend's, for perform to deliver or return.
	d.stats.PDUsIn++
	kind := uint8(pendInline)
	if !fastPath || len(payload) > d.params.SingleCellMax {
		d.cursor += d.params.RxFixed
		kind = pendBuffered
		if ent.direct {
			kind = pendDirect
		}
	}
	d.pend = delivery{kind: kind, vci: c.VCI, ch: ent.ch, ep: ent.ep, payload: payload}
}

// perform carries out the pending delivery, the clock having reached the
// cursor. The endpoint may have been destroyed or the channel closed while
// the processor slept (DetachEndpoint, CloseChannel), and the row reopened
// for someone else: the PDU is delivered only if its VCI still belongs to
// the channel it arrived on, and is otherwise dropped and counted.
func (d *Device) perform() {
	pd := d.pend
	d.pend = delivery{}
	if ent := d.route(pd.vci); ent == nil || ent.ep != pd.ep || ent.ch != pd.ch {
		if pd.kind != pendBadPDU {
			d.stats.ClosedDrops++
			d.arena.Put(pd.payload)
		}
		return
	}
	switch pd.kind {
	case pendBadPDU:
		pd.ep.DevDropReassembly()
	case pendInline:
		// Deliver the detached slab itself — no copy; the application hands
		// it back through Endpoint.Gather/Release → RecycleInline.
		if !pd.ep.DevDeliver(unet.RecvDesc{Channel: pd.ch, Length: len(pd.payload), Inline: pd.payload}) {
			d.arena.Put(pd.payload) // receive queue full: reclaim the slab
		}
	case pendBuffered:
		d.deliverBuffered(pd.ep, pd.ch, pd.payload)
		d.arena.Put(pd.payload) // scatter (or drop) complete; slab back to the arena
	case pendDirect:
		d.deliverDirect(pd.ep, pd.ch, pd.payload)
		d.arena.Put(pd.payload)
	}
}

// deliverDirect deposits a §3.6 direct-access PDU at the sender-specified
// segment offset, if the endpoint allows it.
func (d *Device) deliverDirect(ep *unet.Endpoint, ch unet.ChannelID, payload []byte) {
	if len(payload) < directHeaderSize || !ep.Config().DirectAccess {
		d.stats.DirectDenied++
		ep.DevDropNoBuffer()
		return
	}
	off := int(binary.BigEndian.Uint64(payload))
	data := payload[directHeaderSize:]
	if off < 0 || off+len(data) > ep.Config().SegmentSize {
		d.stats.DirectDenied++
		ep.DevDropNoBuffer()
		return
	}
	ep.DevWriteSegment(off, data)
	ep.DevDeliver(unet.RecvDesc{
		Channel: ch, Length: len(data), Direct: true, DirectOffset: off,
	})
}

// deliverBuffered scatters a PDU into free-queue buffers and pushes the
// descriptor. Arrivals with no free buffers are dropped (§3.4: the process
// provides receive buffers explicitly; run out and you lose messages).
// The offset list rides in the descriptor and returns through
// Endpoint.Gather/Release → RecycleOffsets; on any drop path it goes
// straight back to the pool here.
func (d *Device) deliverBuffered(ep *unet.Endpoint, ch unet.ChannelID, payload []byte) {
	bufSize := ep.Config().RecvBufSize
	need := (len(payload) + bufSize - 1) / bufSize
	if need == 0 {
		need = 1
	}
	offs := d.offPool.Get()
	for i := 0; i < need; i++ {
		off, ok := ep.DevPopFree()
		if !ok {
			// Out of buffers: return what we took and drop the message.
			for _, o := range offs {
				ep.PushFree(nil, o)
			}
			d.offPool.Put(offs)
			ep.DevDropNoBuffer()
			return
		}
		offs = append(offs, off)
	}
	for i, off := range offs {
		lo := i * bufSize
		hi := lo + bufSize
		if hi > len(payload) {
			hi = len(payload)
		}
		ep.DevWriteSegment(off, payload[lo:hi])
	}
	if !ep.DevDeliver(unet.RecvDesc{Channel: ch, Length: len(payload), Buffers: offs}) {
		// Receive queue overflow: recycle the buffers and the list.
		for _, o := range offs {
			ep.PushFree(nil, o)
		}
		d.offPool.Put(offs)
	}
}

// --- descriptor memory (unet.Device, DESIGN.md §10) ---

// RecycleInline returns a consumed descriptor's inline slab to the arena.
func (d *Device) RecycleInline(buf []byte) { d.arena.Put(buf) }

// RecycleOffsets returns a consumed descriptor's offset list to its pool.
func (d *Device) RecycleOffsets(offs []int) { d.offPool.Put(offs) }

// ArenaStats exposes the payload-slab pool counters (tests use Live to
// prove delivered descriptors all come home).
func (d *Device) ArenaStats() unet.PoolStats { return d.arena.Stats() }

// OffsetsStats exposes the offset-list pool counters.
func (d *Device) OffsetsStats() unet.PoolStats { return d.offPool.Stats() }
