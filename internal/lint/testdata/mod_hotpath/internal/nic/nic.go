package nic

import "fmt"

type Cell struct{ B [48]byte }

type Dev struct {
	buf  []Cell
	cb   func(int)
	sink *Cell
}

// Push is allocation-free: it reuses the preallocated ring.
//
//unetlint:hotpath fixture: steady-state intake
func (d *Dev) Push(c Cell) {
	if len(d.buf) < cap(d.buf) {
		d.buf = d.buf[:len(d.buf)+1]
		d.buf[len(d.buf)-1] = c
	}
}

// Leak pins its argument to the heap.
//
//unetlint:hotpath fixture: allocating hot function
func (d *Dev) Leak(c Cell) { // want "heap allocation"
	d.sink = &c
}

// Deep reaches an allocation two static calls down.
//
//unetlint:hotpath fixture: transitive allocation
func (d *Dev) Deep() { d.mid() }

func (d *Dev) mid() { d.leaf() }

func (d *Dev) leaf() {
	d.sink = new(Cell) // want "heap allocation.*rooted at .*Deep.*reached via 2 calls"
}

// Dyn calls through a function value: a hole the proof must report.
//
//unetlint:hotpath fixture: dynamic dispatch
func (d *Dev) Dyn() {
	d.cb(1) // want "cannot follow"
}

// Boom allocates only to panic; a panicking simulator has no steady state
// to protect, so this is exempt.
//
//unetlint:hotpath fixture: panic-only allocation
func (d *Dev) Boom(n int) {
	if n < 0 {
		panic(fmt.Sprintf("bad cell count %d", n))
	}
}

// Grow takes from a free list whose growth is excused where it is written.
// The compiler inlines take and prints its allocation a second time, at
// this call; that copy needs no second allow.
//
//unetlint:hotpath fixture: inlined helper with an excused allocation
func (d *Dev) Grow() { d.sink = d.take() }

func (d *Dev) take() *Cell {
	if len(d.buf) == 0 {
		return new(Cell) //unetlint:allow hotpathalloc fixture: free-list growth, not steady state
	}
	return &d.buf[0]
}

// Checked inlines a helper that allocates only to panic.
//
//unetlint:hotpath fixture: inlined panic-only allocation
func (d *Dev) Checked(n int) { d.check(n) }

func (d *Dev) check(n int) {
	if n < 0 {
		panic("negative cell count")
	}
}

// tail is declared below the file's last exported declaration, so its
// lines lie past the end of the stub the root package's test registers.
//
//unetlint:hotpath fixture: allocation past the export-data stub's last line
func (d *Dev) tail() {
	d.buf = make([]Cell, 8) // want "heap allocation"
}
