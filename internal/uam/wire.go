package uam

import (
	"encoding/binary"
	"math"
)

// Message types on the wire.
const (
	typeReq        = iota + 1 // Active Message request
	typeReply                 // Active Message reply
	typeAck                   // explicit cumulative acknowledgment
	typeStore                 // bulk store segment (GAM store)
	typeGetReq                // bulk get request
	typeGetData               // bulk get data segment
	typeAckPing               // unsequenced ack solicitation (sender flush)
	typeGetRefused            // bulk get request outside the source's memory; arg is the tag
)

// flagReqAck, set in the type byte, asks the receiver for a prompt
// explicit acknowledgment. Cumulative acks piggyback on every message, so
// explicit acks are only solicited when the sender's window is half full
// (or at a Flush); this keeps them off the critical path of
// request/reply round trips, where the reverse message is the ack.
const flagReqAck = 0x80

// headerSize is the UAM wire header. It is kept to 8 bytes so that a
// request with up to 32 bytes of payload still fits the U-Net single-cell
// fast path (40-byte inline limit), preserving the paper's single-cell
// request/reply round trips (§5.2).
const headerSize = 8

// header is the UAM wire header:
//
//	byte 0: message type
//	byte 1: handler index
//	byte 2: sequence number (reliable stream, per peer per direction)
//	byte 3: cumulative acknowledgment (next sequence expected from peer)
//	bytes 4-7: 32-bit argument — the AM argument word for requests and
//	           replies, the destination memory offset for bulk segments,
//	           the transfer tag for gets.
type header struct {
	typ     uint8
	reqAck  bool
	handler uint8
	seq     uint8
	ack     uint8
	arg     uint32
}

func (h header) encode(buf []byte) {
	buf[0] = h.typ
	if h.reqAck {
		buf[0] |= flagReqAck
	}
	buf[1] = h.handler
	buf[2] = h.seq
	buf[3] = h.ack
	binary.BigEndian.PutUint32(buf[4:8], h.arg)
}

// decodeHeader parses a message's header; ok is false for a message too
// short to have one, which the receiver drops.
func decodeHeader(buf []byte) (h header, ok bool) {
	if len(buf) < headerSize {
		return header{}, false
	}
	return header{
		typ:     buf[0] &^ flagReqAck,
		reqAck:  buf[0]&flagReqAck != 0,
		handler: buf[1],
		seq:     buf[2],
		ack:     buf[3],
		arg:     binary.BigEndian.Uint32(buf[4:8]),
	}, true
}

// seqDiff returns a-b in mod-256 arithmetic as a small signed distance.
func seqDiff(a, b uint8) int { return int(int8(a - b)) }

// getReq is the payload of a typeGetReq message.
type getReq struct {
	srcOff uint32 // offset in the responder's memory
	dstOff uint32 // offset in the requester's memory
	n      uint32 // bytes to transfer
}

func (g getReq) encode(buf []byte) {
	binary.BigEndian.PutUint32(buf[0:4], g.srcOff)
	binary.BigEndian.PutUint32(buf[4:8], g.dstOff)
	binary.BigEndian.PutUint32(buf[8:12], g.n)
}

// wireRange reports whether [off, off+n) can travel in the 32-bit offset
// and length fields of the bulk messages.
func wireRange(off, n int) bool {
	return off >= 0 && n >= 0 && int64(off)+int64(n) <= math.MaxUint32
}

func decodeGetReq(buf []byte) (g getReq, ok bool) {
	if len(buf) < 12 {
		return getReq{}, false
	}
	return getReq{
		srcOff: binary.BigEndian.Uint32(buf[0:4]),
		dstOff: binary.BigEndian.Uint32(buf[4:8]),
		n:      binary.BigEndian.Uint32(buf[8:12]),
	}, true
}
