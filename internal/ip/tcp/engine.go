package tcp

import (
	"time"

	"unet/internal/ip"
	"unet/internal/sim"
)

// This file holds the protocol engine: segment input processing,
// congestion control, the output routine and the timer machinery.

// input processes one arriving IP packet.
func (c *Conn) input(p *sim.Proc, pkt []byte) {
	hdr, err := ip.ParseHeader(pkt)
	if err != nil || hdr.Proto != ip.ProtoTCP {
		return
	}
	seg, err := parseSegment(pkt)
	if err != nil {
		return
	}
	p.Charge(c.params.ProcRx)
	if c.params.Checksum {
		p.Charge(time.Duration(HeaderSize+len(seg.payload)) * c.params.ChecksumPerByte)
		t := pkt[ip.HeaderSize:]
		want := uint16(t[16])<<8 | uint16(t[17])
		t[16], t[17] = 0, 0
		if got := ip.InternetChecksum(t); got != want {
			c.stats.BadChecksum++
			return
		}
	}
	if seg.dstPort != c.localPort {
		return
	}
	c.stats.SegsIn++

	switch c.st {
	case stListen:
		if seg.flags&flagSYN != 0 {
			c.irs = seg.seq
			c.rcvNxt = seg.seq + 1
			c.iss = 2000
			c.sndUna, c.sndNxt = c.iss, c.iss+1
			c.sndWnd = c.wndValue(seg.wnd)
			c.st = stSynRcvd
			c.emit(p, segment{srcPort: c.localPort, dstPort: c.remotePort,
				seq: c.iss, ack: c.rcvNxt, flags: flagSYN | flagACK, wnd: c.wndField(c.rcvWindow())})
			c.armRetransmit(p)
		}
		return
	case stSynSent:
		if seg.flags&flagSYN != 0 && seg.flags&flagACK != 0 && seg.ack == c.sndNxt {
			c.irs = seg.seq
			c.rcvNxt = seg.seq + 1
			c.sndUna = seg.ack
			c.sndWnd = c.wndValue(seg.wnd)
			c.establish()
			c.sendAck(p)
		}
		return
	case stSynRcvd:
		if seg.flags&flagACK != 0 && seg.ack == c.sndNxt {
			c.sndUna = seg.ack
			c.sndWnd = c.wndValue(seg.wnd)
			c.establish()
			// fall through to process any piggybacked payload
		}
	}

	if seg.flags&flagACK != 0 {
		c.processAck(p, seg)
	}
	if len(seg.payload) > 0 || seg.flags&flagFIN != 0 {
		c.processData(p, seg)
	}
}

// establish finalizes the handshake: congestion window opens at one
// segment (slow start).
func (c *Conn) establish() {
	c.st = stEstablished
	c.cwnd = c.params.MSS
	// Initial slow-start threshold is effectively unbounded (BSD uses the
	// maximum window): the peer's advertised window, not an arbitrary
	// constant, should end slow start on a loss-free path.
	c.ssthresh = 1 << 30
	c.retransDeadline = 0
	c.lastWndAdv = c.rcvWindow()
}

// processAck handles acknowledgment, window update, congestion control and
// round-trip measurement.
func (c *Conn) processAck(p *sim.Proc, seg segment) {
	c.stats.AcksIn++
	c.sndWnd = c.wndValue(seg.wnd)
	if c.persistDeadline != 0 {
		c.consecTimeouts = 0 // a peer that answers, even with window 0, is alive
	}
	ack := seg.ack
	if seqLEQ(ack, c.sndUna) {
		if ack == c.sndUna && len(c.sendQ) > 0 && seqLT(c.sndUna, c.sndNxt) {
			c.stats.DupAcksIn++
			c.dupAcks++
			if c.dupAcks == 3 {
				c.fastRetransmit(p)
			}
		}
		return
	}
	if seqLT(c.sndNxt, ack) {
		return // acks something never sent
	}
	acked := int(ack - c.sndUna)
	c.sndUna = ack
	c.dupAcks = 0
	c.consecTimeouts = 0 // ack progress refills the retry budget
	if acked <= len(c.sendQ) {
		c.sendQ = c.sendQ[acked:]
	} else {
		c.sendQ = nil // SYN/FIN sequence space
	}
	// RTT sample (Karn: only for segments never retransmitted — rtActive
	// is cleared on any retransmission).
	if c.rtActive && seqLT(c.rtSeq, ack) {
		c.updateRTT(float64(p.Now()-c.rtStart) / float64(time.Microsecond))
		c.rtActive = false
	}
	// Congestion control: slow start below ssthresh, linear above.
	if c.cwnd < c.ssthresh {
		c.cwnd += c.params.MSS
	} else {
		c.cwnd += c.params.MSS * c.params.MSS / c.cwnd
	}
	if seqLT(c.sndUna, c.sndNxt) {
		c.armRetransmit(p)
	} else {
		c.retransDeadline = 0
		c.persistDeadline = 0
	}
	c.output(p)
}

// updateRTT applies the Jacobson/Karels estimator and rounds the RTO up to
// timer ticks — with a 500 ms granularity the RTO is never less than a
// full second after the first backoff, the §7.8 pathology.
func (c *Conn) updateRTT(sampleUS float64) {
	if c.srtt == 0 {
		c.srtt = sampleUS
		c.rttvar = sampleUS / 2
	} else {
		err := sampleUS - c.srtt
		c.srtt += err / 8
		if err < 0 {
			err = -err
		}
		c.rttvar += (err - c.rttvar) / 4
	}
	rtoUS := c.srtt + 4*c.rttvar
	g := float64(c.params.TimerGranularity) / float64(time.Microsecond)
	ticks := int(rtoUS/g) + 1
	if ticks < 2 {
		ticks = 2
	}
	c.rtoTicks = ticks
}

// processData handles in-sequence payload and FIN. Out-of-order segments
// are dropped (the cumulative-ack retransmission recovers them) with an
// immediate duplicate ack.
func (c *Conn) processData(p *sim.Proc, seg segment) {
	seqEnd := seg.seq + uint32(len(seg.payload))
	switch {
	case seg.seq == c.rcvNxt:
		accept := len(seg.payload)
		if room := c.params.WindowBytes - len(c.rcvBuf); accept > room {
			accept = room
		}
		if accept > 0 {
			c.rcvBuf = append(c.rcvBuf, seg.payload[:accept]...)
			c.rcvNxt += uint32(accept)
		}
		if accept < len(seg.payload) {
			// Window overrun: the excess is dropped and will be resent.
			c.sendAck(p)
			return
		}
		if seg.flags&flagFIN != 0 && seqEnd == c.rcvNxt {
			c.finRcvd = true
			c.rcvNxt++
			c.st = stCloseWait
			c.sendAck(p)
			return
		}
		// Do not ack inline: the acknowledgment is deferred to the next
		// poll boundary so that application data written in the meantime
		// piggybacks it — the §7.4 advantage of integrating the protocol
		// with the application. Under the delayed-ack policy the flush
		// additionally waits for a second segment or the 200 ms timer.
		c.ackPending++
		if c.params.DelayedAck && c.ackPending < 2 {
			c.stats.DelayedAcksDeferred++
			if c.ackDeadline == 0 {
				// Delayed acks ride the BSD pr_fast_timeout (200 ms), not
				// the coarse slow timer (§7.8).
				g := c.params.DelayedAckDelay
				c.ackDeadline = (p.Now()/g + 1) * g
			}
		}
	case seqLT(seg.seq, c.rcvNxt):
		// Duplicate (retransmission overlap): re-ack.
		c.sendAck(p)
	default:
		// Out of order: drop and emit a duplicate ack.
		c.stats.OutOfOrderDropped++
		c.sendAck(p)
	}
}

// sendAck emits a pure acknowledgment with the current window.
func (c *Conn) sendAck(p *sim.Proc) {
	c.ackPending = 0
	c.ackDeadline = 0
	c.lastWndAdv = c.rcvWindow()
	c.emit(p, segment{srcPort: c.localPort, dstPort: c.remotePort,
		seq: c.sndNxt, ack: c.rcvNxt, flags: flagACK, wnd: c.wndField(c.lastWndAdv)})
}

// maybeAck flushes a pending acknowledgment at a poll boundary: promptly
// when delayed acks are off, and on the every-second-segment / 200 ms rule
// when they are on.
func (c *Conn) maybeAck(p *sim.Proc) {
	if c.ackPending == 0 {
		return
	}
	if !c.params.DelayedAck || c.ackPending >= 2 ||
		(c.ackDeadline != 0 && p.Now() >= c.ackDeadline) {
		c.sendAck(p)
	}
}

// output transmits as much buffered data as the send window, congestion
// window and MSS allow.
func (c *Conn) output(p *sim.Proc) {
	if c.st != stEstablished && c.st != stCloseWait && c.st != stFinWait {
		return
	}
	for {
		inflight := int(c.sndNxt - c.sndUna)
		unsent := len(c.sendQ) - inflight
		if unsent <= 0 {
			return
		}
		wnd := min(c.sndWnd, c.cwnd)
		avail := wnd - inflight
		if avail <= 0 {
			if c.sndWnd == 0 && c.persistDeadline == 0 {
				c.persistDeadline = c.quantize(p.Now() + c.rto())
			}
			return
		}
		n := min(min(unsent, avail), c.params.MSS)
		seq := c.sndNxt
		payload := c.sendQ[inflight : inflight+n]
		if !c.rtActive {
			c.rtActive = true
			c.rtSeq = seq
			c.rtStart = p.Now()
		}
		c.sndNxt += uint32(n)
		c.ackPending = 0 // piggybacked
		c.lastWndAdv = c.rcvWindow()
		c.emit(p, segment{srcPort: c.localPort, dstPort: c.remotePort,
			seq: seq, ack: c.rcvNxt, flags: flagACK, wnd: c.wndField(c.lastWndAdv), payload: payload})
		if c.retransDeadline == 0 {
			c.armRetransmit(p)
		}
	}
}

// timers fires the retransmission and persist timers. Acknowledgments are
// deliberately not flushed here — they wait for the next poll boundary so
// that application replies can piggyback them.
func (c *Conn) timers(p *sim.Proc) {
	now := p.Now()
	if c.retransDeadline != 0 && now >= c.retransDeadline {
		c.timeout(p)
	}
	if c.persistDeadline != 0 && now >= c.persistDeadline {
		c.windowProbe(p)
	}
}

// timeout implements the retransmission timeout: multiplicative backoff,
// slow-start restart, go-back-N from the last cumulative ack.
func (c *Conn) timeout(p *sim.Proc) {
	c.stats.Timeouts++
	inflight := int(c.sndNxt - c.sndUna)
	if inflight <= 0 && c.st == stEstablished {
		c.retransDeadline = 0
		return
	}
	if !c.retry() {
		return
	}
	c.ssthresh = max(inflight/2, 2*c.params.MSS)
	c.cwnd = c.params.MSS
	c.rtActive = false
	// Duplicate acks counted before the timeout refer to the flight we are
	// about to resend; left in place they could trigger a bogus fast
	// retransmit on the first post-recovery duplicate.
	c.dupAcks = 0
	if c.rtoTicks < 1<<16 {
		c.rtoTicks *= 2
	}
	c.stats.Retransmits++
	switch c.st {
	case stSynSent, stSynRcvd, stFinWait:
		// Control flags (and any trailing data) are resent explicitly;
		// the FIN case keeps its sequence accounting intact.
		c.retransmitHead(p)
	default:
		// Go back N: everything past the last cumulative acknowledgment
		// is presumed lost (the receiver discards out-of-order segments),
		// so pull snd_nxt back and let output stream the window again.
		c.sndNxt = c.sndUna
		c.output(p)
	}
	c.armRetransmit(p)
}

// retry spends one unit of the retry budget. Once it is gone the peer is
// unreachable: the timers stop, retry reports false and the blocking
// operations surface ErrPeerDead.
func (c *Conn) retry() bool {
	c.consecTimeouts++
	if c.consecTimeouts <= c.params.MaxTimeouts {
		return true
	}
	c.dead = true
	c.retransDeadline = 0
	c.persistDeadline = 0
	return false
}

// fastRetransmit resends the lost segment after three duplicate acks
// without waiting for the (coarse) timer.
func (c *Conn) fastRetransmit(p *sim.Proc) {
	c.stats.FastRetransmits++
	c.ssthresh = max(int(c.sndNxt-c.sndUna)/2, 2*c.params.MSS)
	c.cwnd = c.ssthresh
	c.rtActive = false
	c.retransmitHead(p)
	c.armRetransmit(p)
}

// retransmitHead resends the first unacknowledged segment (or control
// flag).
func (c *Conn) retransmitHead(p *sim.Proc) {
	c.stats.Retransmits++
	switch c.st {
	case stSynSent:
		c.emit(p, segment{srcPort: c.localPort, dstPort: c.remotePort,
			seq: c.iss, flags: flagSYN, wnd: c.wndField(c.rcvWindow())})
		return
	case stSynRcvd:
		c.emit(p, segment{srcPort: c.localPort, dstPort: c.remotePort,
			seq: c.iss, ack: c.rcvNxt, flags: flagSYN | flagACK, wnd: c.wndField(c.rcvWindow())})
		return
	}
	n := min(len(c.sendQ), c.params.MSS)
	if n == 0 {
		if c.st == stFinWait {
			c.emit(p, segment{srcPort: c.localPort, dstPort: c.remotePort,
				seq: c.sndNxt - 1, ack: c.rcvNxt, flags: flagFIN | flagACK, wnd: c.wndField(c.rcvWindow())})
		}
		return
	}
	c.emit(p, segment{srcPort: c.localPort, dstPort: c.remotePort,
		seq: c.sndUna, ack: c.rcvNxt, flags: flagACK, wnd: c.wndField(c.rcvWindow()),
		payload: c.sendQ[:n]})
}

// windowProbe sends one byte beyond the closed window to solicit a window
// update (the BSD persist behaviour). A probe that follows an unanswered
// one backs off and spends the retry budget like a retransmission, so a
// peer that has gone silent behind a closed window is declared dead too.
func (c *Conn) windowProbe(p *sim.Proc) {
	inflight := int(c.sndNxt - c.sndUna)
	if len(c.sendQ)-inflight <= 0 || c.sndWnd > 0 {
		c.persistDeadline = 0
		return
	}
	if c.consecTimeouts > 0 && c.rtoTicks < 1<<16 {
		c.rtoTicks *= 2 // the last probe went unanswered
	}
	if !c.retry() {
		return
	}
	c.persistDeadline = c.quantize(p.Now() + c.rto())
	c.stats.WindowProbes++
	c.emit(p, segment{srcPort: c.localPort, dstPort: c.remotePort,
		seq: c.sndNxt, ack: c.rcvNxt, flags: flagACK, wnd: c.wndField(c.rcvWindow()),
		payload: c.sendQ[inflight : inflight+1]})
}
