package uam

import (
	"cmp"
	"fmt"
	"time"

	"unet/internal/sim"
	"unet/internal/unet"
)

// deadErr wraps ErrPeerDead with the peer's identity.
//
//unetlint:allow hotpathalloc a peer is declared dead once, after its retry budget; the stream has no steady state left
func deadErr(pe *peer) error { return fmt.Errorf("%w: node %d", ErrPeerDead, pe.node) }

// outstanding reports how many unacknowledged messages the stream to pe
// holds.
func (pe *peer) outstanding() int { return seqDiff(pe.nextSeq, pe.ackedTo) }

// body is a message's payload in parts: data, n bytes of memory from off, tail.
type body struct {
	data, tail []byte
	off, n     int
}

// sendReliable stages a message in the next window slot and transmits it.
// When the window is full it polls for incoming messages until space opens
// or the retransmit timer fires (§5.1.2: "the sender polls for incoming
// messages until there is space in the send window or until a time-out
// occurs and all unacknowledged messages are retransmitted").
//
//unetlint:hotpath UAM reliable send; the steady-state transmit path
func (u *UAM) sendReliable(p *sim.Proc, pe *peer, typ, handler uint8, arg uint32, b body) error {
	n := len(b.data) + b.n + len(b.tail)
	if n > u.cfg.BulkMax {
		return ErrTooLong
	}
	// "To send a request message, UAM first processes any outstanding
	// messages in the receive queue" (§5.1.2): this keeps acknowledgments
	// flowing in all-to-all communication patterns without explicit
	// polling in the application.
	u.drainIncoming(p)
	for pe.outstanding() >= u.cfg.Window && !pe.dead {
		u.pollOrTimeout(p, pe)
	}
	if pe.dead {
		return deadErr(pe)
	}
	p.Charge(opOverhead)
	seq := pe.nextSeq
	slot := &pe.slots[int(seq)%u.cfg.Window]
	// A go-back-N retransmission of the message this slot held last may
	// still be queued, and the NI reads the slot when it pops that
	// descriptor: the slot is staged again only once it has (DESIGN.md §10).
	u.ep.WaitSent(p, slot.posted)
	// Solicit a prompt ack once the window is half committed, so steady
	// one-way flows never stall waiting for the retransmit timer.
	reqAck := 2*(pe.outstanding()+1) >= u.cfg.Window
	h := header{typ: typ, reqAck: reqAck, handler: handler, seq: seq, ack: pe.expected, arg: arg}
	pe.lastAckSent = pe.expected
	var hdr [headerSize]byte
	h.encode(hdr[:])
	if err := u.ep.Compose(p, slot.off, hdr[:]); err != nil {
		return err
	}
	// The parts are written free, under the one charge a Compose of the
	// whole body would make; the memory's bytes are read in place.
	p.Charge(unet.CopyCost(n))
	off := slot.off + headerSize
	err := cmp.Or(u.ep.Compose(nil, off, b.data), u.ep.Compose(nil, off+n-len(b.tail), b.tail))
	for k := 0; k < b.n && err == nil; {
		piece := u.mem.Piece(b.off+k, b.n-k)
		err = u.ep.Compose(nil, off+len(b.data)+k, piece)
		k += len(piece)
	}
	if err != nil {
		return err
	}
	slot.n = headerSize + n
	if slot.n > u.ep.Host().Device().SingleCellMax() {
		p.Charge(bulkOverhead)
	}
	pe.needAck = false
	pe.dupPending = false // the piggybacked ack just went out
	pe.nextSeq++
	if pe.deadline == 0 {
		pe.deadline = p.Now() + u.cfg.RetransmitTimeout
	}
	return u.sendSlot(p, pe, slot)
}

// sendSlot pushes the descriptor of the message staged in slot and records
// its place in the send queue's order.
func (u *UAM) sendSlot(p *sim.Proc, pe *peer, slot *txSlot) error {
	if err := u.ep.SendBlock(p, u.ep.DescAt(pe.ch, slot.off, slot.n)); err != nil {
		return err
	}
	u.posted++
	slot.posted = u.posted
	return nil
}

// sendAck emits an explicit cumulative acknowledgment (unsequenced).
func (u *UAM) sendAck(p *sim.Proc, pe *peer) {
	u.sendControl(p, pe, typeAck)
	u.stats.AcksSent++
}

// sendAckPing solicits an immediate ack from the peer (used by Flush when
// the tail of a transfer generated no solicitation of its own).
func (u *UAM) sendAckPing(p *sim.Proc, pe *peer) {
	u.sendControl(p, pe, typeAckPing)
}

// sendControl emits an unsequenced single-cell control message carrying
// the cumulative ack.
func (u *UAM) sendControl(p *sim.Proc, pe *peer, typ uint8) {
	p.Charge(opOverhead)
	h := header{typ: typ, ack: pe.expected}
	var hdr [headerSize]byte
	h.encode(hdr[:])
	pe.lastAckSent = pe.expected
	pe.needAck = false
	pe.forceAck = false
	pe.dupPending = false
	// Control messages are single-cell and unsequenced: losing one only
	// delays the sender until the next solicitation or a retransmission.
	// Stage the header in the next control-ring slot of the segment (a
	// direct store, like any write to mapped memory — no Compose cost) so
	// the inline descriptor's bytes stay stable until the NIC pops it.
	off := u.ctrl.Next(headerSize)
	if err := u.ep.Compose(nil, off, hdr[:]); err != nil {
		panic(err)
	}
	if u.ep.SendBlock(p, u.ep.DescAt(pe.ch, off, headerSize)) == nil {
		u.posted++
	}
}

// drainIncoming processes whatever is already in the receive queue,
// guarding against re-entrance from handlers that themselves send.
// Deliberately no explicit-ack flush here: this runs on the send path,
// where our own outgoing messages piggyback the cumulative ack — explicit
// acks are only worth their NIC slot when the node is idle (Poll/PollWait)
// or stalled on a full window (pollOrTimeout).
//
//unetlint:hotpath UAM receive drain; the steady-state receive path
func (u *UAM) drainIncoming(p *sim.Proc) {
	if u.draining {
		return
	}
	u.draining = true
	for {
		rd, ok := u.ep.PollRecv(p)
		if !ok {
			break
		}
		u.process(p, rd)
	}
	u.draining = false
}

// Poll drains the receive queue, dispatching handlers and recycling
// buffers, then flushes pending acknowledgments and fires due retransmit
// timers (§5.1.2). It returns the number of messages processed.
func (u *UAM) Poll(p *sim.Proc) int {
	n := 0
	for {
		rd, ok := u.ep.PollRecv(p)
		if !ok {
			break
		}
		u.process(p, rd)
		n++
	}
	u.flushAcks(p)
	u.checkTimers(p)
	return n
}

// PollWait blocks up to d for at least one message, then drains like Poll.
func (u *UAM) PollWait(p *sim.Proc, d time.Duration) int {
	rd, ok := u.ep.RecvTimeout(p, d)
	if !ok {
		u.checkTimers(p)
		return 0
	}
	u.process(p, rd)
	return 1 + u.Poll(p)
}

// PollBlock blocks until at least one message arrives, then drains like
// Poll. Unlike PollWait it arms no timer at all: a blocked server process
// leaves nothing in the event queue, so a simulation whose clients have
// finished quiesces instead of grinding timeout wakes — the idle-server
// primitive for large serving testbeds. The caller must be sure traffic is
// coming (or that permanent silence means the run is over): with no
// deadline, retransmit timers are only checked once a message arrives.
func (u *UAM) PollBlock(p *sim.Proc) int {
	rd := u.ep.Recv(p)
	u.process(p, rd)
	return 1 + u.Poll(p)
}

// pollOrTimeout waits for traffic until pe's retransmit deadline, then
// retransmits if nothing moved the window. An overdue deadline retransmits
// before the receive queue is looked at.
func (u *UAM) pollOrTimeout(p *sim.Proc, pe *peer) {
	wait := pe.deadline - p.Now()
	if wait <= 0 {
		u.retransmit(p, pe)
		return
	}
	rd, ok := u.ep.RecvTimeout(p, wait)
	if !ok {
		u.retransmit(p, pe)
		return
	}
	u.process(p, rd)
	for {
		rd, ok := u.ep.PollRecv(p)
		if !ok {
			break
		}
		u.process(p, rd)
	}
	u.flushAcks(p)
}

// checkTimers retransmits every peer whose deadline has passed, in node-id
// order so the retransmission schedule is reproducible. An instance has at
// most MaxPeers peers (8 by default), so one walk is the whole check.
func (u *UAM) checkTimers(p *sim.Proc) {
	for _, pe := range u.peerList {
		if pe.deadline != 0 && p.Now() >= pe.deadline {
			u.retransmit(p, pe)
		}
	}
}

// retransmit implements go-back-N: every unacknowledged staged message is
// resent in order (§5.1.1). Consecutive retransmissions without ack
// progress back off exponentially; when the retry budget is exhausted and
// nothing has arrived from the peer for as long, the peer is declared dead
// rather than retransmitted forever — blocking operations surface
// ErrPeerDead. A peer still heard from is busy, not dead: under a hot spot
// its acknowledgments queue behind everyone's retransmissions, and giving
// up on it would fail a run on a wire that loses nothing.
func (u *UAM) retransmit(p *sim.Proc, pe *peer) {
	if pe.outstanding() == 0 {
		pe.deadline = 0
		pe.retries = 0
		return
	}
	if pe.dead {
		pe.deadline = 0
		return
	}
	if pe.retries >= u.cfg.MaxRetries && p.Now()-pe.heard >= u.retryBudget() {
		pe.dead = true
		pe.deadline = 0
		return
	}
	pe.retries++
	for s := pe.ackedTo; s != pe.nextSeq; s++ {
		u.stats.Retransmits++
		p.Charge(opOverhead)
		if u.sendSlot(p, pe, &pe.slots[int(s)%u.cfg.Window]) != nil {
			return
		}
	}
	pe.deadline = p.Now() + u.backoff(pe.retries)
}

// backoff returns the retransmit interval after the nth consecutive
// retransmission: the base interval doubling per retry, capped at
// RetransmitMax. Retry 1 uses the base interval, so a single recovered
// loss behaves exactly like the fixed-interval protocol.
func (u *UAM) backoff(retries int) time.Duration {
	d := u.cfg.RetransmitTimeout
	for i := 1; i < retries && d < u.cfg.RetransmitMax; i++ {
		d *= 2
	}
	if d > u.cfg.RetransmitMax {
		d = u.cfg.RetransmitMax
	}
	return d
}

// retryBudget is how long a peer with this node's configuration keeps
// retransmitting an unacknowledged message before it declares this node
// dead: the first timer and every backed-off one after it.
func (u *UAM) retryBudget() time.Duration {
	d := u.cfg.RetransmitTimeout
	for k := 1; k <= u.cfg.MaxRetries; k++ {
		d += u.backoff(k)
	}
	return d
}

// flushAcks sends explicit acks where piggybacking has fallen behind:
// either the peer saw a duplicate (it missed our acks), or our outgoing
// traffic has not carried a cumulative ack for half a window of arrivals.
// In traffic patterns with reverse data flow this sends almost nothing —
// the data itself acknowledges — which keeps explicit acks off the NIC's
// critical path.
func (u *UAM) flushAcks(p *sim.Proc) {
	for _, pe := range u.peerList {
		if !pe.needAck {
			continue
		}
		if pe.forceAck || 2*seqDiff(pe.expected, pe.lastAckSent) >= u.cfg.Window {
			u.sendAck(p, pe)
		}
	}
}

// process handles one arrival: acknowledgment bookkeeping, in-order
// acceptance, handler dispatch. Gathering the message into contiguous
// pooled scratch is one of the two UAM copies (§5.3).
func (u *UAM) process(p *sim.Proc, rd unet.RecvDesc) {
	pe, ok := u.byChan[rd.Channel]
	if !ok {
		return
	}
	pe.heard = p.Now()
	msg := u.ep.Gather(p, rd, u.scratch.Get())
	u.processMsg(p, pe, msg)
	u.scratch.Put(msg)
}

// processMsg is process after gathering; msg is a pooled scratch buffer
// owned by the caller (handlers see sub-slices of it, valid only during
// the dispatch, as the Handler contract states).
func (u *UAM) processMsg(p *sim.Proc, pe *peer, msg []byte) {
	h, ok := decodeHeader(msg)
	if !ok {
		return
	}
	p.Charge(opOverhead)
	if len(msg) > u.ep.Host().Device().SingleCellMax() {
		p.Charge(bulkOverhead)
	}
	u.applyAck(pe, h.ack)
	switch h.typ {
	case typeAck:
		u.stats.AcksRecv++
		return
	case typeAckPing:
		pe.needAck = true
		pe.forceAck = true
		return
	}
	if h.seq != pe.expected {
		// Out-of-order or duplicate under go-back-N: drop, but make sure
		// the sender learns our cumulative position again — it evidently
		// missed our earlier acknowledgments. A whole window replay arrives
		// as a burst of duplicates; forcing one explicit ack per burst (not
		// per duplicate) is enough to restart the sender and keeps ack
		// storms off the wire.
		u.stats.Duplicates++
		pe.needAck = true
		if pe.dupPending {
			u.stats.AcksSuppressed++
		} else {
			pe.dupPending = true
			pe.forceAck = true
		}
		return
	}
	pe.expected++
	if h.reqAck {
		pe.needAck = true
	}
	u.dispatch(p, pe, h, msg[headerSize:])
}

// applyAck advances the transmit window to a cumulative ack. Progress
// restarts the go-back-N timer for the messages still outstanding;
// otherwise a long pipelined transfer would spuriously retransmit its
// tail while earlier acknowledgments were still in flight.
func (u *UAM) applyAck(pe *peer, ack uint8) {
	adv := seqDiff(ack, pe.ackedTo)
	if adv <= 0 || adv > pe.outstanding() {
		return
	}
	pe.ackedTo = ack
	pe.retries = 0 // ack progress refills the retry budget
	if pe.outstanding() == 0 {
		pe.deadline = 0
	} else {
		pe.deadline = u.ep.Host().Eng.Now() + u.cfg.RetransmitTimeout
	}
}

func (u *UAM) dispatch(p *sim.Proc, pe *peer, h header, data []byte) {
	switch h.typ {
	case typeReq:
		u.stats.ReqRecv++
		fn := u.handlers[h.handler]
		if fn == nil {
			return
		}
		prev := u.replyTo
		u.replyTo = pe
		fn(u, p, pe.node, h.arg, data) //unetlint:allow hotpathalloc user-registered request handler; what user code allocates is the user's budget, not the transport's
		u.replyTo = prev
	case typeReply:
		u.stats.ReplyRecv++
		fn := u.handlers[h.handler]
		if fn == nil {
			return
		}
		prevR := u.inReply
		u.inReply = true
		fn(u, p, pe.node, h.arg, data) //unetlint:allow hotpathalloc user-registered reply handler; what user code allocates is the user's budget, not the transport's
		u.inReply = prevR
	case typeStore:
		u.stats.StoreSegs++
		u.handleStore(p, pe, h, data)
	case typeGetReq:
		u.handleGetReq(p, pe, h, data)
	case typeGetData:
		u.stats.GetSegs++
		u.handleGetData(p, pe, h, data)
	case typeGetRefused:
		if g, pending := u.gets[h.arg]; pending {
			g.rem = getRefused
			u.gets[h.arg] = g
		}
	}
}
