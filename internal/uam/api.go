package uam

import (
	"encoding/binary"

	"unet/internal/sim"
	"unet/internal/unet"
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
	return u.sendReliable(p, pe, typeReq, uint8(handler), arg, body{data: data})
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
	return u.sendReliable(p, u.replyTo, typeReply, uint8(handler), arg, body{data: data})
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
	// Each segment's header argument is its offset; the last carries the
	// handler and arg after its data, or in a segment of its own if full.
	var a [4]byte
	binary.BigEndian.PutUint32(a[:], arg)
	for n, spent := 0, false; ; spent = n == len(data) {
		chunk := min(len(data)-n, u.cfg.BulkMax)
		b, h := body{data: data[n : n+chunk]}, uint8(0)
		if n+chunk == len(data) && uint8(handler) != 0 && (spent || chunk+len(a) <= u.cfg.BulkMax) {
			b.tail, h = a[:], uint8(handler)
		}
		if err := u.sendReliable(p, pe, typeStore, h, uint32(dstOff+n), b); err != nil {
			return err
		}
		if n += chunk; n == len(data) && h == uint8(handler) {
			return nil
		}
	}
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
	p.Charge(unet.CopyCost(len(payload)))
	u.mem.Write(off, payload)
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
	u.gets[tag] = pendingGet{rem: n, src: pe}
	var req [12]byte
	getReq{srcOff: uint32(srcOff), dstOff: uint32(dstOff), n: uint32(n)}.encode(req[:])
	if err := u.sendReliable(p, pe, typeGetReq, 0, tag, body{data: req[:]}); err != nil {
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
		_ = u.sendReliable(p, pe, typeGetRefused, 0, h.arg, body{})
		return
	}
	// Get-data segments carry the destination offset in the header arg, the
	// memory's bytes, read in place, and then the 4-byte tag.
	var tag [4]byte
	binary.BigEndian.PutUint32(tag[:], h.arg)
	for sent := 0; ; {
		chunk := min(n-sent, u.cfg.BulkMax-4)
		p.Charge(unet.CopyCost(chunk))
		if u.sendReliable(p, pe, typeGetData, 0, uint32(dst+sent), body{off: src + sent, n: chunk, tail: tag[:]}) != nil {
			return
		}
		if sent += chunk; sent >= n {
			return
		}
	}
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
	p.Charge(unet.CopyCost(len(payload)))
	u.mem.Write(off, payload)
	if g, ok := u.gets[tag]; ok {
		if g.rem -= len(payload); g.rem <= 0 {
			delete(u.gets, tag)
		} else {
			u.gets[tag] = g
		}
	}
}

// pendingGet is a transfer this node has asked for and not yet collected:
// the bytes still to land, or getRefused, and the peer they come from.
type pendingGet struct {
	rem int
	src *peer
}

// getRefused stands in pendingGet.rem for the bytes remaining of a transfer
// whose source refused the request, until WaitGet collects it.
const getRefused = -1

// GetDone reports whether the transfer identified by tag has finished,
// completed or refused.
func (u *UAM) GetDone(tag uint32) bool {
	g, pending := u.gets[tag]
	return !pending || g.rem == getRefused
}

// WaitGet polls until the transfer identified by tag finishes. It returns
// ErrMemRange if the source refused the request as outside its memory, and
// ErrPeerDead once the source has been declared dead. While a request is
// unacknowledged its retransmissions decide that; once none is, the source
// owes the data, and a source silent for its whole retry budget has given
// up on this node or is gone.
func (u *UAM) WaitGet(p *sim.Proc, tag uint32) error {
	for !u.GetDone(tag) {
		src := u.gets[tag].src
		if src.outstanding() == 0 && p.Now()-src.heard > u.retryBudget() {
			src.dead = true
		}
		if src.dead {
			delete(u.gets, tag)
			return deadErr(src)
		}
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
