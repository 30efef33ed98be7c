package unet

import "fmt"

// pageSize is the unit a Backing becomes resident in. Of 256 B to 4 KiB it
// allocated least on the bench's fig4_sweep, and within a tenth of the least
// on its clos64 and storm8.
const pageSize = 1 << 10

// Backing is a byte region of a fixed logical size whose memory is paid for
// a page at a time, as bytes land in it. The size is what every range check,
// the kernel's pinned budget and the NI's direct-access bound read — the
// paper's segment is a bounded, pinned resource whether or not it is full
// (§3.4, §4.2.4). The heap holds a directory of fixed pages, as long as the
// highest page touched: a page is allocated on its first write, and one never
// written reads as zeros. Consecutive pages may share one array, a run; a view
// (Writable) that crosses a run's end merges the runs it touches into a new
// array, and is good until a merge that includes it. The older array keeps
// its bytes and nothing writes it again: reads and writes go through the
// directory a run at a time (span). Segments and UAM's memory are these (DESIGN.md §10).
type Backing struct {
	size  int
	pages [][]byte // page i is bytes [i*pageSize, …): nil, or a slice of its run's array, capped at the run's end
}

// NewBacking returns an all-zero region of size bytes with nothing resident.
func NewBacking(size int) Backing { return Backing{size: size} }

// Contains reports whether [off, off+n) lies inside the region.
func (m *Backing) Contains(off, n int) bool {
	return off >= 0 && n >= 0 && off <= m.size && n <= m.size-off
}

// mustContain panics on a range outside the region; callers that return
// errors check Contains first.
func (m *Backing) mustContain(off, n int) {
	if !m.Contains(off, n) {
		panic(fmt.Sprintf("unet: bytes [%d, %d) outside a %d-byte region", off, off+n, m.size))
	}
}

// Write copies data into the region at off, a run at a time. Each stretch
// of pages it is the first to write is allocated as one run.
func (m *Backing) Write(off int, data []byte) {
	m.mustContain(off, len(data))
	for len(data) > 0 {
		n := copy(m.span(off, len(data), true), data)
		off, data = off+n, data[n:]
	}
}

// span is the one page walk: the region's bytes from off to the end of their
// run, at most n. A page never written reads as zeros or, for a write, is
// allocated with the pages after it up to off+n not resident either, one run.
func (m *Backing) span(off, n int, write bool) []byte {
	i, o := off/pageSize, off%pageSize
	if i >= len(m.pages) || m.pages[i] == nil {
		if !write {
			return zeros[o:min(pageSize, o+n)]
		}
		j, last := i, (off+n-1)/pageSize
		for j < last && (j+1 >= len(m.pages) || m.pages[j+1] == nil) {
			j++
		}
		m.merge(i, j)
	}
	p := m.pages[i]
	return p[o:min(cap(p), o+n)]
}

// Writable returns the region's bytes [off, off+n) to read or fill in place,
// making the pages under them resident. A range inside one run allocates
// nothing once its pages exist.
func (m *Backing) Writable(off, n int) []byte {
	m.mustContain(off, n)
	if n == 0 {
		return zeros[:0:0] // not nil: DescAt sends an empty view inline
	}
	i, o := off/pageSize, off%pageSize
	if i >= len(m.pages) || o+n > cap(m.pages[i]) {
		m.merge(i, (off+n-1)/pageSize)
	}
	return m.pages[i][o : o+n : o+n]
}

// merge gives pages first through last one new array, into which the runs
// they belong to are copied whole: runs never split, so a range merged once
// is never merged again. Over pages never written it is their allocation.
func (m *Backing) merge(first, last int) {
	if last >= len(m.pages) {
		//unetlint:allow hotpathalloc the directory grows to the highest page the layout touches and then never again
		m.pages = append(m.pages, make([][]byte, last+1-len(m.pages))...)
	}
	for first > 0 && cap(m.pages[first-1]) > pageSize {
		first--
	}
	if c := cap(m.pages[last]); c > 0 {
		last += (c - 1) / pageSize
	}
	base := first * pageSize
	//unetlint:allow hotpathalloc once per page, on its first write (in a run, the NI's DMA into a receive buffer not filled before), and once per range a view first crosses a run's end at
	run := make([]byte, min((last+1)*pageSize, m.size)-base)
	for j := first; j <= last; j++ {
		a := j*pageSize - base
		copy(run[a:], m.pages[j])
		m.pages[j] = run[a:min(a+pageSize, len(run))]
	}
}

// Piece returns the region's bytes from off in place, as many of n as lie
// in one run, or in one page never written, which reads as zeros.
func (m *Backing) Piece(off, n int) []byte {
	m.mustContain(off, n)
	return m.span(off, n, false)
}

// zeros is what a page never written reads as. Never written.
var zeros [pageSize]byte
