package unet

// ChannelID names a communication channel registered on an endpoint. It is
// the application-visible form of the message tag (§3.2): outgoing
// descriptors carry it so the NI can apply the right VCI, and incoming
// descriptors carry it to signal the message's origin.
type ChannelID int

// SendDesc describes one outgoing message (§3.4). The data either lies in
// the communication segment at [Offset, Offset+Length) or — for messages no
// larger than the device's single-cell limit — travels inline in the
// descriptor itself, the small-message optimization of §3.4 that "avoids
// buffer management overheads and can improve the round-trip latency
// substantially".
type SendDesc struct {
	// Channel selects the registered destination.
	Channel ChannelID
	// Offset and Length locate the message in the communication segment
	// when Inline is nil.
	Offset int
	Length int
	// Inline, when non-nil, carries the entire message in the descriptor.
	Inline []byte
	// Direct marks a direct-access send (§3.6): the data is deposited in
	// the destination communication segment at DstOffset instead of into
	// receive buffers. The destination endpoint must enable direct access.
	Direct    bool
	DstOffset int
}

// DirectHeaderSize is the 64-bit deposit offset a direct-access PDU carries
// ahead of its data (§3.6), so a direct send holds at most the device MTU
// less this.
const DirectHeaderSize = 8

// RecvDesc describes one arrived message (§3.4).
//
// Buffer ownership (DESIGN.md §10): the Inline slab and the Buffers list
// are NI-owned pooled memory on loan to the application. The application
// returns them — after its last use of the descriptor — with
// Endpoint.Gather or Release; until then they are exclusively the
// application's (the NI never rewrites a delivered descriptor's memory).
type RecvDesc struct {
	// Channel identifies the channel the message arrived on (its origin).
	Channel ChannelID
	// Length is the total message length.
	Length int
	// Inline holds the whole message for single-cell arrivals, which the
	// NI stores directly in the receive-queue entry (§4.2.2). The slab is
	// pool-backed; Endpoint.Gather and Release return it.
	Inline []byte
	// Buffers lists the segment offsets of the fixed-size receive buffers
	// holding the data, in order. Multi-buffer messages occur when a PDU
	// exceeds the endpoint's receive buffer size. The buffers themselves
	// are recycled through PushFree; the list is pool-backed and returned
	// by Endpoint.Gather and Release, which do both.
	Buffers []int
	// Direct reports a direct-access deposit (§3.6): the data was written
	// straight into the segment at DirectOffset and no receive buffers
	// were consumed.
	Direct       bool
	DirectOffset int
}

// EndpointStats counts data-path events on one endpoint.
type EndpointStats struct {
	// Sent counts descriptors consumed by the NI.
	Sent uint64
	// Received counts descriptors delivered to the receive queue.
	Received uint64
	// DroppedNoBuffer counts arrivals discarded because the free queue was
	// empty.
	DroppedNoBuffer uint64
	// DroppedQueueFull counts arrivals discarded because the receive queue
	// was full.
	DroppedQueueFull uint64
	// DroppedReassembly counts arrivals discarded due to AAL5 CRC/length
	// failure (lost or corrupted cells).
	DroppedReassembly uint64
}
