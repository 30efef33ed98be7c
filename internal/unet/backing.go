package unet

import "fmt"

// Backing is a byte region of a fixed logical size whose memory is paid for
// when bytes land in it. The size is what every range check, the kernel's
// pinned budget and the NI's direct-access bound read — the paper's segment
// is a bounded, pinned resource whether or not it is full (§3.4, §4.2.4).
// The simulator's own heap holds only a resident prefix: a writer that
// reaches past it extends it, a reader sees zeros past it and allocates
// nothing. Communication segments and UAM's exposed memory are both one of
// these; every layout in the repository packs from offset 0, so the prefix
// is the part in use (DESIGN.md §10).
//
// Growth reallocates. A slice handed out earlier (an inline descriptor's
// bytes) keeps the array it was cut from, and that array keeps its bytes.
// Its holder was already bound not to have the range rewritten before the
// NI pops the descriptor, so the old array and the new never disagree about
// bytes anyone may still read from the old one.
type Backing struct {
	size int
	b    []byte // resident prefix, len(b) <= size; the rest reads as zero
}

// NewBacking returns an all-zero region of size bytes with nothing resident.
func NewBacking(size int) Backing { return Backing{size: size} }

// Contains reports whether [off, off+n) lies inside the region.
func (m *Backing) Contains(off, n int) bool {
	return off >= 0 && n >= 0 && off <= m.size && n <= m.size-off
}

// Writable returns the region's bytes [off, off+n) for writing (or for
// aliasing), resident from here on. A range outside the region panics, as
// the slice expression on an eagerly allocated array would have; callers
// with an error to return check Contains first.
func (m *Backing) Writable(off, n int) []byte {
	end := off + n
	if end > len(m.b) {
		m.grow(end, end)
	}
	return m.b[off:end:end]
}

// Provision makes [0, off+n) resident with an eighth of slack behind it. It
// is for set-up code that names its whole range at once, a carve of receive
// buffers. The slack is there because every fixture stages what it sends
// just behind the buffers it has provisioned (testbed.Pair.StageA, the IP
// conduit's ring): with none, the first staged byte reallocates the region
// and copies the whole provisioned prefix to make room for itself.
func (m *Backing) Provision(off, n int) {
	if end := off + n; end > len(m.b) {
		m.grow(end, end+end/8)
	}
}

// grow extends the prefix to want bytes, which hold the end being reached
// for, or to twice its length if that is more: from empty the step is sized
// to its range, and any later one doubles, so neither an ascending sweep in
// steps of any size nor a layout provisioned peer by peer (uam.Connect)
// copies a byte more than once more on average.
func (m *Backing) grow(end, want int) {
	if end > m.size {
		panic(fmt.Sprintf("unet: byte %d outside a %d-byte region", end, m.size))
	}
	//unetlint:allow hotpathalloc the prefix doubles until it covers the offsets the layout uses and then never grows again; a steady state touches only resident bytes
	grown := make([]byte, min(max(want, 2*len(m.b)), m.size))
	copy(grown, m.b)
	m.b = grown
}

// CopyTo copies len(dst) bytes starting at off into dst.
func (m *Backing) CopyTo(dst []byte, off int) {
	n := 0
	if off < len(m.b) {
		n = copy(dst, m.b[off:])
	}
	clear(dst[n:])
}

// AppendTo appends the region's bytes [off, off+n) to dst.
func (m *Backing) AppendTo(dst []byte, off, n int) []byte {
	if off < len(m.b) {
		r := min(n, len(m.b)-off)
		dst = append(dst, m.b[off:off+r]...)
		n -= r
	}
	for n > 0 {
		k := min(n, len(zeros))
		dst = append(dst, zeros[:k]...)
		n -= k
	}
	return dst
}

// zeros is what AppendTo reads past the resident prefix. Never written.
var zeros [4096]byte
