package uam

import (
	"time"

	"unet/internal/sim"
)

// Request sends an Active Message request to dst: handler index, a 32-bit
// argument and up to BulkMax bytes of payload. Requests up to 32 bytes ride
// the U-Net single-cell fast path. The call blocks (polling) while the
// flow-control window is full.
func (u *UAM) Request(p *sim.Proc, dst, handler int, arg uint32, data []byte) error {
	pe, err := u.peerFor(dst)
	if err != nil {
		return err
	}
	if handler <= 0 || handler > 255 {
		return ErrBadHandler
	}
	u.stats.ReqSent++
	return u.sendReliable(p, pe, typeReq, uint8(handler), arg, data)
}

// Reply sends the matching reply from within a request handler. Reply
// handlers may not reply again — the live-lock rule of §5.
func (u *UAM) Reply(p *sim.Proc, handler int, arg uint32, data []byte) error {
	if u.replyTo == nil || u.inReply {
		return ErrReplyCtx
	}
	if handler <= 0 || handler > 255 {
		return ErrBadHandler
	}
	u.stats.ReplySent++
	return u.sendReliable(p, u.replyTo, typeReply, uint8(handler), arg, data)
}

// Store performs a GAM bulk store: data is transferred into dst's exposed
// memory at dstOff, segmented into BulkMax-sized reliable messages. When
// handler is non-zero, it is invoked on the destination after the final
// segment with arg as argument. Store returns when the data is queued
// (sender buffers hold it for retransmission); use Flush to wait for
// acknowledgment. A range the wire cannot express is ErrMemRange; one that
// misses dst's memory is for dst to refuse, segment by segment, counted in
// its Stats.MemRangeDrops.
func (u *UAM) Store(p *sim.Proc, dst int, dstOff int, data []byte, handler int, arg uint32) error {
	pe, err := u.peerFor(dst)
	if err != nil {
		return err
	}
	if !wireRange(dstOff, len(data)) {
		return ErrMemRange
	}
	for n := 0; n < len(data) || (len(data) == 0 && n == 0); {
		chunk := len(data) - n
		if chunk > u.cfg.BulkMax {
			chunk = u.cfg.BulkMax
		}
		last := n+chunk == len(data)
		hidx := uint8(0)
		if last && handler != 0 {
			hidx = uint8(handler)
		}
		seg := data[n : n+chunk]
		off := uint32(dstOff + n)
		var a uint32
		if last {
			a = arg
		}
		if err := u.sendStoreSeg(p, pe, hidx, off, a, seg, last); err != nil {
			return err
		}
		n += chunk
		if len(data) == 0 {
			break
		}
	}
	return nil
}

// sendStoreSeg transmits one bulk store segment. The final-segment flag
// travels in the top bit of the handler-invocation contract: handlers are
// only attached to final segments, and arg is delivered with them.
func (u *UAM) sendStoreSeg(p *sim.Proc, pe *peer, handler uint8, dstOff, arg uint32, seg []byte, last bool) error {
	// The destination offset rides in the header argument; the completion
	// argument is appended to the final segment's payload. The assembly
	// buffer is pooled scratch: sendReliable stages it into a window slot
	// before returning, so it can go back on the free list here.
	if last && handler != 0 {
		buf := u.scratch.Get()
		buf = append(buf, seg...)
		buf = append(buf, byte(arg>>24), byte(arg>>16), byte(arg>>8), byte(arg))
		var err error
		if len(buf) > u.cfg.BulkMax {
			// No room to piggyback: send the data, then a zero-length
			// handler-carrying segment.
			if err = u.sendReliable(p, pe, typeStore, 0, dstOff, seg); err == nil {
				err = u.sendReliable(p, pe, typeStore, handler, dstOff+uint32(len(seg)), buf[len(seg):])
			}
		} else {
			err = u.sendReliable(p, pe, typeStore, handler, dstOff, buf)
		}
		u.scratch.Put(buf)
		return err
	}
	return u.sendReliable(p, pe, typeStore, 0, dstOff, seg)
}

// handleStore applies a bulk store segment to the exposed memory and, on a
// handler-carrying final segment, dispatches the completion handler.
func (u *UAM) handleStore(p *sim.Proc, pe *peer, h header, data []byte) {
	payload := data
	var arg uint32
	if h.handler != 0 {
		if len(data) < 4 {
			return
		}
		payload = data[:len(data)-4]
		tail := data[len(data)-4:]
		arg = uint32(tail[0])<<24 | uint32(tail[1])<<16 | uint32(tail[2])<<8 | uint32(tail[3])
	}
	off := int(h.arg)
	if !u.mem.Contains(off, len(payload)) {
		u.stats.MemRangeDrops++
		return
	}
	p.Charge(u.ep.Host().Params.CopyCost(len(payload)))
	copy(u.mem.Writable(off, len(payload)), payload)
	if h.handler != 0 {
		if fn := u.handlers[h.handler]; fn != nil {
			prev := u.replyTo
			u.replyTo = pe
			fn(u, p, pe.node, arg, payload) //unetlint:allow hotpathalloc user-registered store handler; what user code allocates is the user's budget, not the transport's
			u.replyTo = prev
		}
	}
}

// Get starts a GAM bulk get: n bytes from src's exposed memory at srcOff
// are transferred into this node's memory at dstOff. It returns a tag;
// GetDone reports completion and WaitGet blocks (polling) until then. A
// range outside this node's memory, or one the wire cannot express, is
// ErrMemRange here; one that misses src's memory is for src to refuse, and
// WaitGet reports it.
func (u *UAM) Get(p *sim.Proc, src int, srcOff, dstOff, n int) (uint32, error) {
	pe, err := u.peerFor(src)
	if err != nil {
		return 0, err
	}
	if !u.mem.Contains(dstOff, n) || !wireRange(srcOff, n) {
		return 0, ErrMemRange
	}
	u.nextTag++
	tag := u.nextTag
	u.gets[tag] = n
	var req [12]byte
	getReq{srcOff: uint32(srcOff), dstOff: uint32(dstOff), n: uint32(n)}.encode(req[:])
	if err := u.sendReliable(p, pe, typeGetReq, 0, tag, req[:]); err != nil {
		delete(u.gets, tag)
		return 0, err
	}
	return tag, nil
}

// handleGetReq streams the requested region back as reliable get-data
// segments addressed to the requester's memory.
func (u *UAM) handleGetReq(p *sim.Proc, pe *peer, h header, data []byte) {
	req, ok := decodeGetReq(data)
	if !ok {
		return
	}
	src, n, dst := int(req.srcOff), int(req.n), int(req.dstOff)
	if !u.mem.Contains(src, n) {
		// The reliable layer has already acknowledged the request, so
		// silence would leave the requester's tag pending for ever.
		u.stats.MemRangeDrops++
		_ = u.sendReliable(p, pe, typeGetRefused, 0, h.arg, nil)
		return
	}
	sent := 0
	seg := u.scratch.Get()
	for {
		chunk := n - sent
		if chunk > u.cfg.BulkMax-4 {
			chunk = u.cfg.BulkMax - 4
		}
		// Get-data segments carry the destination offset in the header arg
		// and the tag in the trailing 4 bytes. The staging buffer is pooled
		// scratch, reused across segments (sendReliable stages each into a
		// window slot before returning).
		p.Charge(u.ep.Host().Params.CopyCost(chunk))
		seg = u.mem.AppendTo(seg[:0], src+sent, chunk)
		seg = append(seg, byte(h.arg>>24), byte(h.arg>>16), byte(h.arg>>8), byte(h.arg))
		if err := u.sendReliable(p, pe, typeGetData, 0, uint32(dst+sent), seg); err != nil {
			break
		}
		sent += chunk
		if sent >= n {
			break
		}
	}
	u.scratch.Put(seg)
}

// handleGetData lands one get-data segment in local memory and retires the
// transfer tag when complete.
func (u *UAM) handleGetData(p *sim.Proc, pe *peer, h header, data []byte) {
	if len(data) < 4 {
		return
	}
	payload := data[:len(data)-4]
	tail := data[len(data)-4:]
	tag := uint32(tail[0])<<24 | uint32(tail[1])<<16 | uint32(tail[2])<<8 | uint32(tail[3])
	off := int(h.arg)
	if !u.mem.Contains(off, len(payload)) {
		u.stats.MemRangeDrops++
		return
	}
	p.Charge(u.ep.Host().Params.CopyCost(len(payload)))
	copy(u.mem.Writable(off, len(payload)), payload)
	if rem, ok := u.gets[tag]; ok {
		if rem -= len(payload); rem <= 0 {
			delete(u.gets, tag)
		} else {
			u.gets[tag] = rem
		}
	}
}

// getRefused stands in gets for the bytes remaining of a transfer whose
// source refused the request, until WaitGet collects it.
const getRefused = -1

// GetDone reports whether the transfer identified by tag has finished,
// completed or refused.
func (u *UAM) GetDone(tag uint32) bool {
	rem, pending := u.gets[tag]
	return !pending || rem == getRefused
}

// WaitGet polls until the transfer identified by tag finishes. It returns
// ErrMemRange if the source refused the request as outside its memory.
func (u *UAM) WaitGet(p *sim.Proc, tag uint32) error {
	for !u.GetDone(tag) {
		u.PollWait(p, u.cfg.RetransmitTimeout)
	}
	if _, refused := u.gets[tag]; refused {
		delete(u.gets, tag)
		return ErrMemRange
	}
	return nil
}

// Flush polls until every message queued to dst has been acknowledged —
// the completion point of a sequence of Stores.
func (u *UAM) Flush(p *sim.Proc, dst int) error {
	pe, err := u.peerFor(dst)
	if err != nil {
		return err
	}
	if pe.outstanding() > 0 {
		u.sendAckPing(p, pe)
	}
	for pe.outstanding() > 0 {
		if pe.dead {
			return deadErr(pe)
		}
		u.pollOrTimeout(p, pe)
	}
	return nil
}

// FlushTimeout is Flush with a deadline; it reports false if messages to
// dst remained unacknowledged when the deadline passed (e.g. because the
// peer stopped servicing the network).
func (u *UAM) FlushTimeout(p *sim.Proc, dst int, d time.Duration) bool {
	pe, err := u.peerFor(dst)
	if err != nil {
		return false
	}
	if pe.outstanding() > 0 {
		u.sendAckPing(p, pe)
	}
	deadline := p.Now() + d
	for pe.outstanding() > 0 {
		if pe.dead || p.Now() >= deadline {
			return false
		}
		u.pollOrTimeout(p, pe)
	}
	return true
}

// Outstanding reports how many reliable messages to dst await
// acknowledgment.
func (u *UAM) Outstanding(dst int) int {
	pe, err := u.peerFor(dst)
	if err != nil {
		return 0
	}
	return pe.outstanding()
}

// FlushAll is Flush for every peer, in node-id order. Peers declared dead
// are skipped — their unacknowledged messages can never complete; callers
// that care about them use Flush and inspect ErrPeerDead per peer.
func (u *UAM) FlushAll(p *sim.Proc) {
	for _, pe := range u.peerList {
		if pe.outstanding() > 0 && !pe.dead {
			u.sendAckPing(p, pe)
		}
	}
	for {
		pending := false
		for _, pe := range u.peerList {
			if pe.outstanding() > 0 && !pe.dead {
				pending = true
				u.pollOrTimeout(p, pe)
			}
		}
		if !pending {
			return
		}
	}
}
