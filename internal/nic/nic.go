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
	"unet/internal/topo"
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

// inRun stamps a train in the input FIFO: its n oldest cells not yet taken
// arrive at first, first+spacing, … Train intake stamps future arrival
// times; the processor never takes a cell before its arrival.
type inRun struct {
	first, spacing time.Duration
	n              int32
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
	e      *sim.Engine
	host   *unet.Host
	params Params
	uplink *fabric.Link

	// Input FIFO: bare cells in the engine's cell pool, and beside them the
	// trains they came in, stamped once each. Bare rings (rather than a
	// sim.FIFO) so whole cell trains can be accepted in one call with exact
	// overflow accounting. eops holds the arrivals of the queued EOP cells,
	// oldest first: its front, or the newest cell's arrival when it is
	// empty, is the instant an idle processor wakes for (nextWake). It is a
	// zero-value ring, which keeps its last chunk: one from the engine's
	// pool would be taken and given back on every PDU.
	in   sim.Ring[atm.Cell]
	runs sim.Ring[inRun]
	eops sim.Ring[time.Duration]

	// The on-board processor (step). cursor is where the work it has charged
	// for ends: ahead of the clock while it works, and possibly while it is
	// idle too, since a mid-PDU cell has nothing for the clock to wait for.
	// pend is the delivery waiting for the clock to reach the cursor, the one
	// action step sleeps for. idle means no step is queued: the cells a
	// blocking loop would take meanwhile are taken when something next looks
	// (catchUp), and one wake is armed (arm) no later than its next
	// observable action — timeout, at wakeAt. The flags share one word.
	cursor  time.Duration
	pend    delivery
	started bool
	idle    bool
	armed   bool
	// txDoorbell latches KickTx rings between processor sweeps: set when an
	// endpoint enqueues send work, cleared only by a send scan that finds
	// every queue empty. While clear, the processor skips the O(endpoints)
	// scan entirely. Virtual time is unaffected — the scan is cost-free and
	// a clear doorbell means it would have found nothing.
	txDoorbell bool
	wakeAt     time.Duration
	timeout    sim.Timer

	eps   []*unet.Endpoint
	txRR  int
	stats Stats

	// VCI demultiplex table. Receive VCIs are labels of this device's own
	// downlink, lowest free first from fabric.FirstUserVCI, so the table is
	// as long as the channels open here. A lookup is one index (§4.2.2);
	// rows move when the span grows, so nothing keeps a row's address
	// across a table change.
	table fabric.LabelTable[vciEntry]

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

	head [directHeaderSize]byte // the direct-access header of the PDU being sent
}

var _ unet.Device = (*Device)(nil)
var _ fabric.RunSink = (*Device)(nil)

// New creates a device sending on uplink. Call Start (or use Attach) to
// run its processor.
func New(e *sim.Engine, host *unet.Host, params Params, uplink *fabric.Link) *Device {
	if uplink.Engine() != e {
		panic(fmt.Sprintf("nic: %s/%s transmits on a foreign shard's uplink", host.Name, params.Name))
	}
	params.SingleCellMax = min(params.SingleCellMax, atm.SingleCellMax) // the fast path is one cell (§4.2.2)
	d := &Device{
		e:      e,
		host:   host,
		params: params,
		uplink: uplink,
		in:     sim.NewRing[atm.Cell](e),
		runs:   sim.NewRing[inRun](e),
	}
	return d
}

// Attach wires a device of the given parameters to host index port of a
// compiled fabric: it creates the device, registers it as the host's cell
// sink and the host's device, records the host with the manager, and starts
// the on-board processor.
func Attach(h *unet.Host, cl *topo.Fabric, m *unet.Manager, port int, params Params) *Device {
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
		panic(fmt.Sprintf("nic: %s/%s started twice", d.host.Name, d.params.Name))
	}
	d.started = true
	d.e.AtArg(d.e.Now(), stepDevice, d)
}

// Stats returns a snapshot of the device counters.
func (d *Device) Stats() Stats { return d.stats }

// --- unet.Device management interface ---

// AttachEndpoint begins servicing ep.
func (d *Device) AttachEndpoint(ep *unet.Endpoint) error {
	if len(d.eps) >= maxEndpoints {
		return fmt.Errorf("nic %s/%s: endpoint table full (%d)", d.host.Name, d.params.Name, maxEndpoints)
	}
	d.eps = append(d.eps, ep)
	return nil
}

// DetachEndpoint stops servicing ep and forgets its channels.
func (d *Device) DetachEndpoint(ep *unet.Endpoint) {
	d.catchUp()
	for i, e := range d.eps {
		if e == ep {
			d.eps = append(d.eps[:i], d.eps[i+1:]...)
			break
		}
	}
	d.closeRows(ep, 0, true)
}

// OpenChannel registers the receive tag rx as belonging to (ep, ch).
func (d *Device) OpenChannel(ep *unet.Endpoint, ch unet.ChannelID, tx, rx atm.VCI) error {
	d.catchUp()
	ent := d.table.Put(rx)
	if ent.open && ent.ep != ep {
		return errors.New("nic: VCI already registered to another endpoint")
	}
	ent.ep, ent.ch, ent.open = ep, ch, true
	ent.reasm.SetSource(&d.arena)
	d.arm()
	return nil
}

// CloseChannel removes the tag registration.
func (d *Device) CloseChannel(ep *unet.Endpoint, ch unet.ChannelID) {
	d.catchUp()
	d.closeRows(ep, ch, false)
}

// closeRows clears the rows ep has open on channel ch (on every channel if
// all), returning any partial-PDU slab to the arena.
func (d *Device) closeRows(ep *unet.Endpoint, ch unet.ChannelID, all bool) {
	rows := d.table.Rows()
	for i := range rows {
		if ent := &rows[i]; ent.open && ent.ep == ep && (all || ent.ch == ch) {
			ent.reasm.Reset()
			*ent = vciEntry{}
		}
	}
	d.arm()
}

// TableLen reports the demux table's length — set-up state, bounded by the
// channels open on this device.
func (d *Device) TableLen() int { return len(d.table.Rows()) }

// route looks up the table entry for v, or nil if the VCI is unregistered.
//
//unetlint:hotpath demux lookup; runs once per stretch of arriving cells
func (d *Device) route(v atm.VCI) *vciEntry {
	if ent := d.table.At(v); ent != nil && ent.open {
		return ent
	}
	return nil
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
	d.catchUp()
	d.arm()
}

// SingleCellMax reports the inline-descriptor fast-path limit.
func (d *Device) SingleCellMax() int { return d.params.SingleCellMax }

// MTU reports the largest message the device segments: one AAL5 PDU.
func (d *Device) MTU() int { return atm.MaxPDU }

// MaxEndpoints reports the endpoint table size.
func (d *Device) MaxEndpoints() int { return maxEndpoints }

// deliverCell takes one cell arriving now into the input FIFO; overflow
// drops it, as the real FIFO would. Only the DeliverTrain overflow fallback
// hands the device a cell outside a train.
func (d *Device) deliverCell(c atm.Cell) {
	d.catchUp()
	if d.in.Len() >= d.params.InFIFODepth {
		d.stats.InFIFODrops++
		return
	}
	one := [1]atm.Cell{c}
	w := sim.WalkSlice(one[:])
	d.queue(&w, 1, d.e.Now(), 0)
	d.arm()
}

// DeliverTrain implements fabric.CellSink: a back-to-back run of cells is
// queued in one call, copied a ring chunk at a time and stamped once
// (cells[i] arrives at first + i*spacing; the processor will not touch it
// earlier).
//
// Accepting the whole train up front is exact as long as it fits: FIFO
// occupancy can only fall between now and the later cells' arrivals (the
// processor drains, nothing else fills), so cell-by-cell intake could not
// have dropped any of these cells either. An idle processor first takes
// the cells a blocking loop would have taken by now, so occupancy is what
// that loop would have left. When the train does not fit, each cell is
// taken at its own arrival instant by a delivery event, which decides
// overflow drops cell by cell exactly.
//
//unetlint:hotpath per-train intake; runs for every train reaching a NIC
func (d *Device) DeliverTrain(cells []atm.Cell, first, spacing time.Duration) {
	w := sim.WalkSlice(cells)
	d.intake(&w, len(cells), first, spacing)
}

// DeliverRun implements fabric.RunSink: DeliverTrain of the n oldest cells
// of r, read off the ring where they lie.
//
//unetlint:hotpath per-train intake of a train that straddles ring chunks
func (d *Device) DeliverRun(r *sim.Ring[atm.Cell], n int, first, spacing time.Duration) {
	w := r.Walk(n)
	d.intake(&w, n, first, spacing)
}

// intake is DeliverTrain's and DeliverRun's one core: it takes the train of
// n cells w reads, deciding overflow on the whole train.
func (d *Device) intake(w *sim.Walk[atm.Cell], n int, first, spacing time.Duration) {
	d.catchUp()
	if d.in.Len()+n > d.params.InFIFODepth {
		head := w.Next(1)[0]
		for k := 1; k < n; {
			for _, c := range w.Next(n) {
				d.deliverCellAt(c, first+time.Duration(k)*spacing)
				k++
			}
		}
		d.deliverCell(head)
		return
	}
	d.queue(w, n, first, spacing)
	d.arm()
}

// queue copies the train of n cells w reads into the FIFO a ring chunk at a
// time and stamps it once: the i-th cell arrives at first + i*spacing.
func (d *Device) queue(w *sim.Walk[atm.Cell], n int, first, spacing time.Duration) {
	for i := 0; i < n; {
		dst := d.in.Room(n - i)
		w.Read(dst)
		for k := range dst {
			if dst[k].EOP {
				d.eops.Push(first + time.Duration(i+k)*spacing)
			}
		}
		i += len(dst)
	}
	d.runs.Push(inRun{first: first, spacing: spacing, n: int32(n)})
}

// lastArrive returns the arrival of the FIFO's newest cell; it must not be
// empty.
func (d *Device) lastArrive() time.Duration {
	r := d.runs.Back()
	return r.first + time.Duration(r.n-1)*r.spacing
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
	d.deliverCell(c)
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
// It is the firmware's blocking loop with its waits taken out. That loop
// wakes at a cell's arrival or at the end of its work (its cursor), takes
// each queued cell that has arrived by its cursor, and sleeps to the
// cursor before delivering a PDU, after a send and after a run of cells.
// Here per-cell costs are accounted arithmetically on the cursor, and the
// cells are taken at the instants that loop would have taken them
// (takeDue). step sleeps (syncTo) only before delivering a PDU or sending
// one; a run of mid-PDU cells leaves the processor idle with its cursor
// ahead, and one armed wake (arm) stands in for the loop's next
// observable action. The loop's other wakes show nothing: the cells it
// would take then are taken when something next looks (catchUp). So
// every delivery, drop, send and overflow decision lands where that loop
// made it.
//
// step runs as an event and cannot block. Where syncTo cannot move the
// clock in place it has queued step again at the cursor and step returns;
// everything it needs to carry on — cursor, pend, the FIFO, the doorbell —
// is in the device, so re-entry is just the top of the loop.
//
//unetlint:hotpath the firmware loop; runs on every burst of cells and every send
func (d *Device) step() {
	defer d.namePanic()
	for {
		d.takeDue()
		switch now := d.e.Now(); {
		case d.pend.kind != pendNone:
			if !d.syncTo() {
				return
			}
			d.perform()
		case d.txDoorbell && d.cursor > now:
			// The loop sleeps to its cursor before it sends; cells that
			// arrive meanwhile are taken first.
			if !d.syncTo() {
				return
			}
		case d.txDoorbell:
			// The send scan runs only while the doorbell is pending: a clear
			// doorbell guarantees every send queue is empty (the last scan
			// found them so, and enqueues since would have rung). Clearing
			// only on an empty scan keeps the service order — and hence the
			// timeline — identical to the unconditional scan.
			d.cursor = now
			if ep := d.nextTxEndpoint(); ep != nil {
				d.handleTx(ep)
			} else {
				d.txDoorbell = false
			}
		default:
			d.idle = true
			d.arm()
			return
		}
	}
}

// takeDue takes, up to a completed PDU, every cell the blocking loop would
// have taken by now. Its next wake is at the end of its work or at the
// head cell's arrival, whichever is later; woken, it takes the head and
// every cell behind it that had arrived by its cursor then, a run of cells
// it finds queued, before it sleeps again. Those are taken now even if
// they arrive later, as in that loop; a cell queued while it slept waits
// for the sleep to end. The cells go a stretch at a time (takeStretch),
// each stretch with one run-stamp update and one drop from the FIFO.
//
//unetlint:hotpath runs once per stretch of arriving cells
func (d *Device) takeDue() {
	now, run := d.e.Now(), false
	for d.pend.kind == pendNone && d.in.Len() > 0 {
		r := d.runs.Front()
		if !run || r.first > d.cursor {
			at := max(d.cursor, r.first) // a wake
			if at > now {
				return
			}
			d.cursor, run = at, true
		}
		n, eop := d.takeStretch(d.in.Span(int(r.n)), r.first, r.spacing, now)
		if r.n -= int32(n); r.n == 0 {
			d.runs.Pop()
		} else {
			r.first += time.Duration(n) * r.spacing
		}
		d.in.Drop(n)
		if eop {
			d.eops.Pop()
		}
	}
}

// takeStretch takes a stretch of the FIFO's head cells. cells are the head
// train's cells in the head ring chunk: cells[k] arrives at first +
// k*spacing, and cells[0] is due. A cell is due if it has arrived by
// max(cursor, now), and a stretch is the due cells on the head's VCI up to
// and including the PDU's last. One route lookup serves them all. Each cell
// still moves the cursor by the loop's own rule: to its arrival if that is
// later, then on by its cost. So a stretch ends where the per-cell loop
// would have stopped too. The mid-PDU payloads are appended in one call,
// and the last cell (endPDU) leaves the PDU in pend. A cell on an unknown
// VCI is a stretch of its own. It returns the cells it took and whether
// the last of them ended a PDU.
//
//unetlint:hotpath the receive path: runs once per stretch of arriving cells, its loop once per cell
func (d *Device) takeStretch(cells []atm.Cell, first, spacing, now time.Duration) (int, bool) {
	v := cells[0].VCI
	ent := d.route(v)
	if ent == nil {
		d.stats.CellsIn++
		d.stats.UnknownVCIs++
		return 1, cells[0].EOP
	}
	if ent.reasm.Pending() == 0 {
		ent.direct = cells[0].Direct
	}
	cursor, rx := d.cursor, d.params.RxPerCell
	mid, eop := 0, false
	for at := first; mid < len(cells) && cells[mid].VCI == v && at <= max(cursor, now); at += spacing {
		cursor = max(cursor, at)
		if eop = cells[mid].EOP; eop {
			break
		}
		cursor += rx
		mid++
	}
	d.cursor = cursor
	if mid > 0 {
		ent.reasm.AddMid(cells[:mid])
	}
	n := mid
	if eop {
		d.endPDU(ent, &cells[mid])
		n++
	}
	d.stats.CellsIn += uint64(n)
	return n, eop
}

// catchUp brings an idle processor's FIFO and table state to where the
// blocking loop would have left them by now. Every FIFO or table decision
// made while the processor is idle calls it first, so an overflow is
// judged on the occupancy that loop would have had, and a cell that loop
// took before a table change is taken under the old route.
func (d *Device) catchUp() {
	if d.idle {
		d.takeDue()
	}
}

// arm keeps an idle processor's one wake queued no later than its next
// observable action (nextWake). A wake already queued no later than that
// stays: woken early, the processor takes what is due, finds nothing to
// show and arms again.
//
//unetlint:hotpath runs on every burst of cells, every doorbell and every idle entry
func (d *Device) arm() {
	if !d.idle {
		return
	}
	at, ok := d.nextWake()
	if !ok || d.armed && d.wakeAt <= at {
		return
	}
	if d.armed {
		d.timeout.Cancel()
	}
	d.timeout, d.wakeAt, d.armed = d.e.AtArg(at, timeoutDevice, d), at, true
}

// nextWake bounds from below the instant of an idle processor's next
// observable action, from the state catchUp has brought it to. A pending
// delivery is due at the cursor; with the doorbell latched, a send is due
// at the cursor or now, the processor's next wake. Otherwise only a
// completed PDU shows, and the first EOP cell in the FIFO is taken no
// earlier than its arrival or the cursor. With none queued, the wake at
// the last cell's arrival or the cursor takes every cell by the time the
// run ends. A wake no earlier than the cursor and the head cell's arrival
// takes at least that cell, so the processor gets there.
func (d *Device) nextWake() (time.Duration, bool) {
	switch {
	case d.pend.kind != pendNone || d.txDoorbell:
		return max(d.cursor, d.e.Now()), true
	case d.in.Len() == 0:
		return 0, false
	}
	at := d.lastArrive()
	if d.eops.Len() > 0 {
		at = *d.eops.Front()
	}
	return max(d.cursor, d.runs.Front().first, at), true
}

// namePanic re-raises a panic inside the processor with the device's name,
// as sim.Proc does for a process: on a 1 024-host run the stack alone does
// not say whose NIC failed.
func (d *Device) namePanic() {
	if r := recover(); r != nil {
		panic(fmt.Sprintf("nic: %s/%s processor panicked: %v", d.host.Name, d.params.Name, r))
	}
}

// stepDevice is the processor's start and the far end of a sleep.
func stepDevice(a any) { a.(*Device).step() }

// timeoutDevice is the wake arm queued for an idle processor.
func timeoutDevice(a any) {
	d := a.(*Device)
	d.armed, d.idle = false, false
	d.step()
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
// are read out of the communication segment in place (host-memory DMA,
// charged in TxFixed/TxPerCell) and segmented straight into the uplink's
// lent slots. The uplink's bounded output FIFO paces the processor when the
// fiber backs up.
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
		d.cursor += txSingleCell
		atm.SegmentAppend(d.uplink.Room(1)[:0], tx, desc.Inline) // one cell: New caps SingleCellMax
		d.sendCells(1)
		return
	}
	// The rest is read out of the segment (an inline message, on a device
	// without the fast path, is empty), behind the deposit offset if direct.
	head := d.head[:0]
	if desc.Direct {
		head = binary.BigEndian.AppendUint64(head, uint64(desc.DstOffset))
	}
	d.cursor += d.params.TxFixed
	var s atm.Segmenter
	n := s.Start(tx, desc.Direct, head, ep.DevSegment(), desc.Offset, desc.Length)
	for k := n; k > 0; k = s.Fill(d.uplink.Room(k)) {
	}
	d.sendCells(n)
}

// sendCells books the n cells just built in the uplink's lent slots in one
// Commit, the per-cell cost and the output-FIFO stall folded into the cursor
// in closed form: the device is the uplink's only sender, so NextFree is
// known. Cell i is handed over at start + i*TxPerCell, where a stall-per-cell
// loop may have handed it over later: at a TxPerCell of a cell time or more
// only the first cell can stall, and below that a later stall ends before the
// link is free for that cell anyway, so departures and cursor are the loop's.
func (d *Device) sendCells(n int) {
	tx, ct := d.params.TxPerCell, d.uplink.Params().CellTime
	limit := time.Duration(outFIFOCells) * ct
	start := max(d.cursor+tx, d.uplink.NextFree()-limit)
	d.uplink.Commit(n, start, tx)
	d.cursor = max(start+time.Duration(n-1)*tx, d.uplink.NextFree()-ct-limit)
	d.stats.CellsOut += uint64(n)
}

// endPDU takes the last cell c of a PDU on ent's VCI, charging its cost on
// the cursor. A single-cell PDU takes the receive fast path: deposited
// directly into the next receive-queue entry with no buffer allocation
// (§4.2.2). A multi-cell PDU, accumulated by takeStretch, is scattered into
// free-queue buffers. The completed (or failed) PDU is left in pend, and
// reaches its endpoint once the clock has reached the cursor.
func (d *Device) endPDU(ent *vciEntry, c *atm.Cell) {
	fastPath := ent.reasm.Pending() == 0 && !c.Direct && d.params.SingleCellMax > 0
	if fastPath {
		d.cursor += rxSingleCell
	} else {
		d.cursor += d.params.RxPerCell
	}
	payload, err := ent.reasm.Add(*c)
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
