package unet_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"unsafe"

	"unet/internal/sim"
	"unet/internal/unet"
)

// flatSegment is the segment as it was before residency followed use: one
// eagerly allocated array, slice expressions, and a count standing in for
// the free queue. It is the oracle TestSegmentMatchesFlatTwin holds the
// endpoint to.
type flatSegment struct {
	b         []byte
	bufSize   int
	free, cap int // free-queue occupancy and capacity
}

func (f *flatSegment) checkRange(off, n int) error {
	if off < 0 || n < 0 || off+n > len(f.b) {
		return unet.ErrBadOffset
	}
	return nil
}

func (f *flatSegment) compose(off int, data []byte) error {
	if err := f.checkRange(off, len(data)); err != nil {
		return err
	}
	copy(f.b[off:], data)
	return nil
}

func (f *flatSegment) readBuf(off int, buf []byte) error {
	if err := f.checkRange(off, len(buf)); err != nil {
		return err
	}
	copy(buf, f.b[off:off+len(buf)])
	return nil
}

func (f *flatSegment) pushFree(off int) error {
	if err := f.checkRange(off, f.bufSize); err != nil {
		return err
	}
	if f.free == f.cap {
		return unet.ErrLimit
	}
	f.free++
	return nil
}

func (f *flatSegment) devWrite(off int, data []byte) {
	if f.checkRange(off, len(data)) != nil {
		panic("device DMA outside segment")
	}
	copy(f.b[off:], data)
}

func (f *flatSegment) devReadAppend(dst []byte, off, n int) []byte {
	if f.checkRange(off, n) != nil {
		panic("device DMA outside segment")
	}
	return append(dst, f.b[off:off+n]...)
}

// appendPieces appends m's bytes [off, off+n) to dst as the NI reads them,
// one Piece at a time, and panics if a piece is empty or longer than asked.
func appendPieces(dst []byte, m *unet.Backing, off, n int) []byte {
	for {
		b := m.Piece(off, n)
		if dst = append(dst, b...); len(b) == n {
			return dst
		} else if len(b) == 0 || len(b) > n {
			panic(fmt.Sprintf("Piece(%d, %d) returned %d bytes", off, n, len(b)))
		}
		off, n = off+len(b), n-len(b)
	}
}

func (f *flatSegment) gather(length int, offs []int) []byte {
	dst := make([]byte, length)
	n := 0
	for _, off := range offs {
		chunk := min(length-n, f.bufSize)
		if err := f.readBuf(off, dst[n:n+chunk]); err != nil {
			panic(err)
		}
		n += chunk
		if err := f.pushFree(off); err != nil {
			panic(err)
		}
	}
	return dst[:n]
}

// panics runs f and reports whether it panicked.
func panics(f func()) (did bool) {
	defer func() { did = recover() != nil }()
	f()
	return false
}

// TestSegmentMatchesFlatTwin drives seeded random sequences of every
// operation that reads or writes the segment, in and out of range, against
// the eager twin: same bytes, same errors, same panics, and the same
// segment at the end.
func TestSegmentMatchesFlatTwin(t *testing.T) {
	const size, bufSize, freeCap = 64 << 10, 1024, 32
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		_, pr := newPair(t, unet.EndpointConfig{SegmentSize: size, RecvBufSize: bufSize, FreeQueueCap: freeCap}, 0)
		ep := pr.EpA
		twin := &flatSegment{b: make([]byte, size), bufSize: bufSize, cap: freeCap}
		// Offsets favour the low segment early on and reach the whole of it —
		// and both sides of each end — as the sequence goes, and one in four
		// lies just before a page boundary, so pages come resident in many
		// orders and views and reads straddle them.
		offset := func(step int) int {
			switch rng.Intn(12) {
			case 0:
				return -1 - rng.Intn(64)
			case 1:
				return size - rng.Intn(2*bufSize)
			case 2:
				return size + rng.Intn(64)
			case 3, 4, 5:
				return (1+rng.Intn(size/page))*page - 1 - rng.Intn(40)
			}
			return rng.Intn(1 + size*min(step+20, 400)/400)
		}
		data := func() []byte {
			d := make([]byte, rng.Intn(3*bufSize))
			rng.Read(d)
			return d
		}
		for step := 0; step < 400; step++ {
			what := fmt.Sprintf("seed %d step %d", seed, step)
			off := offset(step)
			switch op := rng.Intn(9); op {
			case 0:
				d := data()
				if got, want := ep.Compose(nil, off, d), twin.compose(off, d); got != want {
					t.Fatalf("%s: Compose(%d, %d B) = %v, twin %v", what, off, len(d), got, want)
				}
			case 1:
				d := data()
				got := panics(func() { ep.DevWriteSegment(off, d) })
				if want := panics(func() { twin.devWrite(off, d) }); got != want {
					t.Fatalf("%s: DevWriteSegment(%d, %d B) panicked %v, twin %v", what, off, len(d), got, want)
				}
			case 2:
				if got, want := ep.PushFree(nil, off), twin.pushFree(off); got != want {
					t.Fatalf("%s: PushFree(%d) = %v, twin %v", what, off, got, want)
				}
			case 3:
				n := rng.Intn(80)
				var d unet.SendDesc
				got := panics(func() { d = ep.DescAt(pr.ChA, off, n) })
				inline := n <= ep.Host().Device().SingleCellMax()
				want := inline && panics(func() { _ = twin.b[off : off+n] })
				if got != want {
					t.Fatalf("%s: DescAt(%d, %d) panicked %v, twin %v", what, off, n, got, want)
				}
				if !got && inline && !bytes.Equal(d.Inline, twin.b[off:off+n]) {
					t.Fatalf("%s: DescAt(%d, %d) aliases % x, twin % x", what, off, n, d.Inline, twin.b[off:off+n])
				}
				if !got && !inline && (d.Inline != nil || d.Offset != off || d.Length != n) {
					t.Fatalf("%s: DescAt(%d, %d) = %+v", what, off, n, d)
				}
			case 4:
				got := bytes.Repeat([]byte{0xEE}, rng.Intn(3*bufSize))
				want := bytes.Clone(got)
				if e1, e2 := ep.ReadBuf(nil, off, got), twin.readBuf(off, want); e1 != e2 || !bytes.Equal(got, want) {
					t.Fatalf("%s: ReadBuf(%d, %d B) = %v, twin %v (bytes equal: %v)", what, off, len(got), e1, e2, bytes.Equal(got, want))
				}
			case 5:
				n := rng.Intn(3 * bufSize)
				var got, want []byte
				p1 := panics(func() { got = appendPieces([]byte("dma:"), ep.DevSegment(), off, n) })
				p2 := panics(func() { want = twin.devReadAppend([]byte("dma:"), off, n) })
				if p1 != p2 || !bytes.Equal(got, want) {
					t.Fatalf("%s: the NI's read of [%d, +%d) in pieces panicked %v, twin %v (bytes equal: %v)", what, off, n, p1, p2, bytes.Equal(got, want))
				}
			case 6:
				// A buffered arrival of k buffers, the last one part full.
				k := 1 + rng.Intn(3)
				offs := []int{off}
				for len(offs) < k {
					offs = append(offs, offset(step))
				}
				length := (k-1)*bufSize + 1 + rng.Intn(bufSize)
				var got, want []byte
				p2 := panics(func() { want = twin.gather(length, offs) })
				p1 := panics(func() { got = ep.Gather(nil, unet.RecvDesc{Channel: pr.ChA, Length: length, Buffers: offs}, nil) })
				if p1 != p2 || !bytes.Equal(got, want) {
					t.Fatalf("%s: Gather(%d B from %v) panicked %v, twin %v (bytes equal: %v)", what, length, offs, p1, p2, bytes.Equal(got, want))
				}
			case 7:
				// The NI takes a few buffers, or the free queue would fill
				// and every later push be refused.
				for i := rng.Intn(8); i > 0; i-- {
					if _, ok := ep.DevPopFree(); ok != (twin.free > 0) {
						t.Fatalf("%s: DevPopFree ok=%v with %d buffers in the twin's queue", what, ok, twin.free)
					} else if ok {
						twin.free--
					}
				}
			case 8:
				// A view filled in place, then partly overwritten through the
				// segment: the view and the segment both see both stores.
				n := 1 + rng.Intn(40)
				if twin.checkRange(off, n) != nil {
					break
				}
				v := ep.DescAt(pr.ChA, off, n).Inline
				rng.Read(v)
				copy(twin.b[off:], v)
				w := rng.Intn(n)
				d := make([]byte, 1+rng.Intn(2*page))
				rng.Read(d)
				if got, want := ep.Compose(nil, off+w, d), twin.compose(off+w, d); got != want {
					t.Fatalf("%s: Compose(%d, %d B) = %v, twin %v", what, off+w, len(d), got, want)
				}
				if !bytes.Equal(v, twin.b[off:off+n]) {
					t.Fatalf("%s: view of [%d, %d) reads % x after a write, twin % x", what, off, off+n, v, twin.b[off:off+n])
				}
			}
		}
		whole := make([]byte, size)
		if err := ep.ReadBuf(nil, 0, whole); err != nil || !bytes.Equal(whole, twin.b) {
			t.Fatalf("seed %d: segments differ after the sequence (err %v)", seed, err)
		}
	}
}

// page is the unit a segment becomes resident in (unet.pageSize).
const page = 1024

// TestViewsAcrossPages pins the page model's one sharp edge (DESIGN.md §10):
// a view that crosses a page boundary merges the runs it touches into one
// array. Such a view shares its bytes with the segment's writers and readers
// both ways, a second view of the same range allocates nothing, overlapping
// merges keep every byte and take whole runs, and an inline descriptor
// queued before a merge that includes it still sends what was staged.
func TestViewsAcrossPages(t *testing.T) {
	tb, pr := newPair(t, unet.EndpointConfig{}, 4)
	ep := pr.EpA
	compose := func(off int, b string) {
		t.Helper()
		if err := ep.Compose(nil, off, []byte(b)); err != nil {
			t.Fatal(err)
		}
	}
	read := func(off, n int) string {
		t.Helper()
		buf := make([]byte, n)
		if err := ep.ReadBuf(nil, off, buf); err != nil {
			t.Fatal(err)
		}
		return string(buf)
	}

	// Pages 0 and 1: written one at a time, viewed together, then written
	// both ways.
	compose(page-4, "abcd")
	compose(page, "efgh")
	v := ep.DescAt(pr.ChA, page-4, 8).Inline
	if string(v) != "abcdefgh" {
		t.Fatalf("a view across the first boundary reads %q, want what Compose wrote", v)
	}
	ep.DevWriteSegment(page-2, []byte("XY"))
	v[6] = 'Z'
	if string(v) != "abXYefZh" || read(page-4, 8) != "abXYefZh" {
		t.Fatalf("view %q, segment %q after a DMA through the segment and a store through the view, want both abXYefZh", v, read(page-4, 8))
	}
	if n := testing.AllocsPerRun(100, func() { v = ep.DescAt(pr.ChA, page-4, 8).Inline }); n != 0 {
		t.Errorf("a second view of a merged range allocates %v times, want 0", n)
	}

	// Pages 1-2, then 2-3: the second merge takes the first's run with it.
	v12 := ep.DescAt(pr.ChA, 2*page-8, 16).Inline
	copy(v12, "0123456789abcdef")
	v23 := ep.DescAt(pr.ChA, 3*page-8, 16).Inline
	copy(v23, "ghijklmnopqrstuv")
	v12 = ep.DescAt(pr.ChA, 2*page-8, 16).Inline
	if string(v12) != "0123456789abcdef" || string(v23) != "ghijklmnopqrstuv" {
		t.Fatalf("after two overlapping merges the views read %q and %q", v12, v23)
	}
	if unsafe.Add(unsafe.Pointer(&v12[0]), page) != unsafe.Pointer(&v23[0]) {
		t.Error("pages 1-3 are not one array after the second merge")
	}
	compose(3*page-4, "WXYZ")
	v12[0] = '#'
	if string(v23) != "ghijWXYZopqrstuv" || read(2*page-8, 1) != "#" {
		t.Fatalf("after the merges: view %q, segment %q; writes and views disagree", v23, read(2*page-8, 1))
	}
	if got := read(page-4, 8); got != "abXYefZh" {
		t.Fatalf("the merges lost the bytes at the first boundary: %q", got)
	}

	// A merge takes whole runs, the one on its right too, so runs never
	// split: pages 5-6 are one run (one write), a view across 4-5 merges
	// 4-6, and a view across 5-6 then finds them where that one did.
	compose(4*page, "x")
	compose(6*page-4, "yyyyyyyy")
	v45 := ep.DescAt(pr.ChA, 5*page-4, 8).Inline
	v56 := ep.DescAt(pr.ChA, 6*page-4, 8).Inline
	if unsafe.Add(unsafe.Pointer(&v45[0]), page) != unsafe.Pointer(&v56[0]) {
		t.Error("a merge split the run on its right; a view into that run merged again")
	}

	// A descriptor queued before a merge that includes its range: the NI
	// pops it later and must send the staged bytes from the older array.
	msg := []byte("staged before the merge")
	var got []byte
	pr.EpB.Host().Spawn("rx", func(p *sim.Proc) {
		got = pr.EpB.Gather(p, pr.EpB.Recv(p), nil)
	})
	ep.Host().Spawn("tx", func(p *sim.Proc) {
		stage := 8*page - 8
		if err := ep.Compose(p, stage, msg); err != nil {
			t.Error(err)
		}
		d := ep.DescAt(pr.ChA, stage, len(msg))
		if err := ep.Send(p, d); err != nil {
			t.Error(err)
		}
		// Still queued: the NI pops it only once this process yields. A view
		// across the next boundary merges pages 7-9 into a new array.
		ep.DescAt(pr.ChA, 9*page-4, 8)
		if &ep.DescAt(pr.ChA, stage, len(msg)).Inline[0] == &d.Inline[0] {
			t.Error("the staged range did not move; the test no longer exercises a merge")
		}
	})
	tb.Eng.Run()
	if !bytes.Equal(got, msg) {
		t.Fatalf("received %q, want %q", got, msg)
	}
}

// TestStagingOversizedMessagePanics: a message larger than the whole region
// used to be handed the base offset and written over whatever followed.
func TestStagingOversizedMessagePanics(t *testing.T) {
	s := unet.NewStaging(512, 64)
	if off := s.Next(64); off != 512 {
		t.Fatalf("a message the size of the region staged at %d, want 512", off)
	}
	defer func() {
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, "65-byte") || !strings.Contains(msg, "64-byte") {
			t.Fatalf("Next(65) on a 64-byte region: %q, want a panic naming both sizes", msg)
		}
	}()
	s.Next(65)
}
