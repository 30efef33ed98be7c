// Package uam implements U-Net Active Messages (paper §5): a user-level
// library conforming to the Generic Active Messages (GAM) 1.1 style of
// interface, built directly on U-Net endpoints.
//
// Communication is by requests and matching replies: an Active Message
// carries a handler index and an argument word (plus payload); the handler
// runs when the message is pulled out of the network by Poll. To prevent
// live-lock, a reply handler may not send another reply (§5).
//
// Reliability (§5.1.1): each peer pair maintains a window-based flow
// control protocol with fixed window w. Requests, replies and bulk
// segments form one go-back-N reliable stream per direction; cumulative
// acknowledgments piggyback on every message, and arrivals that generate
// no reverse traffic are explicitly acknowledged. Every endpoint
// preallocates 4w buffers per peer it communicates with: w staging slots
// for its own stream and 2w receive buffers, with the final w kept as
// receive-queue headroom.
//
// Reception is by explicit polling (§5.1.2): Poll loops through the
// receive queue, dispatches handlers, sends acknowledgments, and recycles
// buffers. All blocking operations poll internally, including while
// waiting out send-window back-pressure, as the paper describes.
package uam

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"unet/internal/sim"
	"unet/internal/unet"
)

// Errors reported by the UAM layer.
var (
	ErrNoPeer     = errors.New("uam: destination not connected")
	ErrTooLong    = errors.New("uam: payload exceeds bulk buffer size")
	ErrBadHandler = errors.New("uam: handler index not registered")
	ErrReplyCtx   = errors.New("uam: Reply outside a request handler")
	ErrMemRange   = errors.New("uam: offset outside exposed memory")
	// ErrPeerDead reports that MaxRetries consecutive retransmissions went
	// unacknowledged and nothing arrived from the peer for a whole retry
	// budget: the peer is declared dead and blocking operations toward it
	// fail instead of retransmitting forever.
	ErrPeerDead = errors.New("uam: peer unresponsive, retry limit exceeded")
)

// Config tunes the UAM instance.
type Config struct {
	// Window is the flow-control window w (§5.1.1). Default 8.
	Window int
	// BulkMax is the data capacity of one message and of each
	// preallocated buffer; transfers are segmented to this size. The
	// prototype used 4160 bytes (§5.2) — the cause of the Figure 4
	// bandwidth dip at 4164 bytes.
	BulkMax int
	// MaxPeers bounds the peers this instance can connect to; buffer
	// space is preallocated per peer. Default 8 (the paper's cluster).
	MaxPeers int
	// RetransmitTimeout is the initial go-back-N timer. Default 2 ms.
	// Consecutive unacknowledged retransmissions back off exponentially
	// from here (doubling per retry) up to RetransmitMax.
	RetransmitTimeout time.Duration
	// RetransmitMax caps the backed-off retransmit interval. Default 32 ms
	// (never below RetransmitTimeout).
	RetransmitMax time.Duration
	// MaxRetries is the number of consecutive unacknowledged
	// retransmissions after which a peer that has also been silent for
	// the whole retry budget is declared dead and blocking operations
	// return ErrPeerDead. Default 10.
	MaxRetries int
}

// MemSize is the size of the memory region every instance exposes to bulk
// store/get.
const MemSize = 1 << 20

// The UAM library's own costs, on top of the endpoint's.
const (
	// opOverhead is the per-operation bookkeeping cost (header build/parse,
	// window accounting). Calibration: UAM adds ~6 µs to the raw U-Net
	// single-cell round trip (§5.2: 71 µs vs 65).
	opOverhead = 400 * time.Nanosecond
	// bulkOverhead is the additional per-operation cost of the multi-cell
	// transfer path (transmit/receive buffer management). Calibration: UAM
	// block transfers take roughly 135 µs + 0.2 µs/byte round trip (§5.2),
	// ~15 µs above the raw U-Net multi-cell fixed cost.
	bulkOverhead = 3500 * time.Nanosecond
)

// DefaultConfig returns the prototype configuration.
func DefaultConfig() Config {
	return Config{
		Window:            8,
		BulkMax:           4160,
		MaxPeers:          8,
		RetransmitTimeout: 2 * time.Millisecond,
		RetransmitMax:     32 * time.Millisecond,
		MaxRetries:        10,
	}
}

// Handler is an Active Message handler. src is the sending node, arg the
// 32-bit argument word, data the payload (valid only during the call).
// Request handlers may call u.Reply; reply handlers must not.
type Handler func(u *UAM, p *sim.Proc, src int, arg uint32, data []byte)

// Stats counts UAM protocol events.
type Stats struct {
	ReqSent, ReqRecv     uint64
	ReplySent, ReplyRecv uint64
	AcksSent, AcksRecv   uint64
	StoreSegs, GetSegs   uint64
	Retransmits          uint64
	Duplicates           uint64
	// MemRangeDrops counts bulk segments and get requests this side refused
	// because they addressed bytes outside its exposed memory. The reliable
	// layer has acknowledged them by then, so the count is where they show.
	MemRangeDrops uint64
	// AcksSuppressed counts duplicates that did not force a fresh explicit
	// ack because one was already pending — a whole go-back-N window replay
	// solicits one ack, not one per duplicate.
	AcksSuppressed uint64
}

type txSlot struct {
	off    int    // staging offset in the communication segment
	n      int    // staged message length (header + data)
	posted uint64 // UAM.posted after the last descriptor pointing here was pushed
}

type peer struct {
	node int
	ch   unet.ChannelID

	// Transmit side of the reliable stream.
	nextSeq  uint8
	ackedTo  uint8
	slots    []txSlot
	deadline time.Duration // retransmit deadline; 0 = nothing outstanding
	retries  int           // consecutive retransmissions without ack progress
	dead     bool          // retry budget exhausted; sticky
	heard    time.Duration // when the last message from this peer arrived

	// Receive side.
	expected    uint8
	lastAckSent uint8 // cumulative ack last carried to this peer
	needAck     bool
	forceAck    bool // duplicate seen or ack explicitly solicited by ping
	dupPending  bool // a duplicate already forced an ack that has not gone out
}

// UAM is one node's Active Messages instance, bound to one U-Net endpoint.
type UAM struct {
	node     int
	ep       *unet.Endpoint
	cfg      Config
	handlers []Handler
	peers    map[int]*peer
	// peerList holds the peers in ascending node-id order. Every loop with
	// a protocol effect (retransmission, acks, flushes) walks this list, not
	// the map: map iteration order is random per run and would feed the
	// event schedule — and hence the golden outputs — from a random
	// permutation (unetlint's mapiter analyzer enforces this).
	peerList []*peer
	byChan   map[unet.ChannelID]*peer
	mem      unet.Backing          // MemSize bytes exposed to bulk store/get
	gets     map[uint32]pendingGet // by transfer tag
	nextTag  uint32
	replyTo  *peer // non-nil while dispatching a request handler
	inReply  bool  // true while dispatching a reply handler
	draining bool  // re-entrance guard for pre-send queue draining
	stats    Stats
	slotBase int    // next free segment offset for peer slot allocation (the control ring comes first)
	posted   uint64 // descriptors pushed on ep; the NI has popped the kth once ep.Stats().Sent >= k

	// scratch pools message staging buffers (gather output, store/get
	// segment assembly). A pool — not a single buffer — because handlers
	// re-enter the library: a dispatch can send, which drains the receive
	// queue, which gathers and dispatches again before the outer buffer is
	// released.
	scratch unet.Pool[byte]

	// Control messages (acks, ack pings) are unsequenced, so they have no
	// window slot to stage in; their inline bytes must nonetheless stay
	// stable until the NIC pops the descriptor. They rotate through a
	// dedicated segment region of SendQueueCap+1 header-sized slots: at
	// most SendQueueCap descriptors can be queued, so a slot is never
	// rewritten while a descriptor still points at it.
	ctrl unet.Staging
}

// New creates a UAM instance for owner with the given node id, creating
// the underlying U-Net endpoint sized for cfg.
func New(owner *unet.Process, node int, cfg Config) (*UAM, error) {
	def := DefaultConfig()
	if cfg.Window <= 0 {
		cfg.Window = def.Window
	}
	if cfg.Window > 64 {
		return nil, fmt.Errorf("uam: window %d too large for 8-bit sequence space", cfg.Window)
	}
	if cfg.BulkMax <= 0 {
		cfg.BulkMax = def.BulkMax
	}
	if cfg.MaxPeers <= 0 {
		cfg.MaxPeers = def.MaxPeers
	}
	if cfg.RetransmitTimeout <= 0 {
		cfg.RetransmitTimeout = def.RetransmitTimeout
	}
	if cfg.RetransmitMax <= 0 {
		cfg.RetransmitMax = def.RetransmitMax
	}
	if cfg.RetransmitMax < cfg.RetransmitTimeout {
		cfg.RetransmitMax = cfg.RetransmitTimeout
	}
	if cfg.MaxRetries <= 0 {
		cfg.MaxRetries = def.MaxRetries
	}
	slot := headerSize + cfg.BulkMax
	perPeer := cfg.Window*slot + 2*cfg.Window*(headerSize+cfg.BulkMax)
	ctrlRing := (cfg.Window*cfg.MaxPeers + 1) * headerSize // control staging slots
	epCfg := unet.EndpointConfig{
		SegmentSize:  cfg.MaxPeers*perPeer + ctrlRing,
		RecvBufSize:  headerSize + cfg.BulkMax,
		SendQueueCap: cfg.Window * cfg.MaxPeers,
		RecvQueueCap: 4 * cfg.Window * cfg.MaxPeers,
		FreeQueueCap: 2 * cfg.Window * cfg.MaxPeers,
	}
	k := owner.Host().Kernel
	// UAM segments outgrow the default per-process cap; raise it the way a
	// site administrator would for a parallel-computing node.
	lim := k.Limits()
	if lim.MaxSegmentBytes < epCfg.SegmentSize {
		lim.MaxSegmentBytes = epCfg.SegmentSize
		k.SetLimits(lim)
	}
	if lim.MaxQueueCap < epCfg.RecvQueueCap {
		lim.MaxQueueCap = epCfg.RecvQueueCap
		k.SetLimits(lim)
	}
	ep, err := k.CreateEndpoint(nil, owner, epCfg)
	if err != nil {
		return nil, err
	}
	return &UAM{
		node:     node,
		ep:       ep,
		cfg:      cfg,
		handlers: make([]Handler, 256),
		peers:    make(map[int]*peer),
		byChan:   make(map[unet.ChannelID]*peer),
		mem:      unet.NewBacking(MemSize),
		gets:     make(map[uint32]pendingGet),
		ctrl:     unet.NewStaging(0, ctrlRing),
		slotBase: ctrlRing,
	}, nil
}

// Node returns this instance's node id.
func (u *UAM) Node() int { return u.node }

// Mem exposes bytes [off, off+n) of the bulk-transfer memory region (the
// GAM "virtual memory" stores and gets address), for the application to
// read or fill in place. The slice is good until a later one across a page
// boundary merges its pages (unet.Backing); a range outside MemSize panics.
func (u *UAM) Mem(off, n int) []byte { return u.mem.Writable(off, n) }

// Stats returns a snapshot of protocol counters.
func (u *UAM) Stats() Stats { return u.stats }

// Config returns the resolved configuration (defaults filled in).
func (u *UAM) Config() Config { return u.cfg }

// RegisterHandler binds index id (1-255) to h.
func (u *UAM) RegisterHandler(id int, h Handler) error {
	if id <= 0 || id > 255 {
		return fmt.Errorf("uam: handler id %d out of range", id)
	}
	u.handlers[id] = h
	return nil
}

// Connect joins two UAM instances with a U-Net channel and preallocates
// the per-peer buffers on both sides (§5.1.1).
func Connect(m *unet.Manager, a, b *UAM) error {
	if len(a.peers) >= a.cfg.MaxPeers || len(b.peers) >= b.cfg.MaxPeers {
		return fmt.Errorf("uam: peer table full")
	}
	if _, dup := a.peers[b.node]; dup {
		return fmt.Errorf("uam: nodes %d and %d already connected", a.node, b.node)
	}
	ch, err := m.Connect(nil, a.ep, b.ep)
	if err != nil {
		return err
	}
	if err := a.addPeer(b.node, ch.ChanA); err != nil {
		return err
	}
	return b.addPeer(a.node, ch.ChanB)
}

func (u *UAM) addPeer(node int, ch unet.ChannelID) error {
	pe := &peer{node: node, ch: ch, slots: make([]txSlot, u.cfg.Window)}
	slotSize := headerSize + u.cfg.BulkMax
	for i := range pe.slots {
		pe.slots[i] = txSlot{off: u.slotBase}
		u.slotBase += slotSize
	}
	// 2w receive buffers per peer (§5.1.1).
	base, err := u.ep.ProvideRecvBuffers(nil, u.slotBase, 2*u.cfg.Window)
	if err != nil {
		return err
	}
	u.slotBase = base
	u.peers[node] = pe
	i := sort.Search(len(u.peerList), func(i int) bool { return u.peerList[i].node >= node })
	u.peerList = append(u.peerList, nil)
	copy(u.peerList[i+1:], u.peerList[i:])
	u.peerList[i] = pe
	u.byChan[ch] = pe
	return nil
}

// peerFor validates the destination.
func (u *UAM) peerFor(dst int) (*peer, error) {
	pe, ok := u.peers[dst]
	if !ok {
		return nil, fmt.Errorf("%w: node %d", ErrNoPeer, dst)
	}
	return pe, nil
}
