package unet_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

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
		// and both sides of each end — as the sequence goes, so the prefix
		// grows in many steps and reads straddle it.
		offset := func(step int) int {
			switch rng.Intn(12) {
			case 0:
				return -1 - rng.Intn(64)
			case 1:
				return size - rng.Intn(2*bufSize)
			case 2:
				return size + rng.Intn(64)
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
			switch op := rng.Intn(8); op {
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
				p1 := panics(func() { got = ep.DevReadSegmentAppend([]byte("dma:"), off, n) })
				p2 := panics(func() { want = twin.devReadAppend([]byte("dma:"), off, n) })
				if p1 != p2 || !bytes.Equal(got, want) {
					t.Fatalf("%s: DevReadSegmentAppend(%d, %d) panicked %v, twin %v (bytes equal: %v)", what, off, n, p1, p2, bytes.Equal(got, want))
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
			}
		}
		whole := make([]byte, size)
		if err := ep.ReadBuf(nil, 0, whole); err != nil || !bytes.Equal(whole, twin.b) {
			t.Fatalf("seed %d: segments differ after the sequence (err %v)", seed, err)
		}
	}
}

// TestSegmentWorstCase bounds what the laziness can cost: a segment touched
// in ascending 4 KB steps — the pattern exact-fit growth recopies at every
// step — allocates at most twice its size in total, and reading bytes
// nobody ever wrote returns zeros and allocates nothing.
func TestSegmentWorstCase(t *testing.T) {
	const size = 1 << 20
	_, pr := newPair(t, unet.EndpointConfig{SegmentSize: size}, 0)
	page := bytes.Repeat([]byte{0xA5}, 4096)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for off := 0; off < size; off += len(page) {
		if err := pr.EpA.Compose(nil, off, page); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&m1)
	if got := m1.TotalAlloc - m0.TotalAlloc; got > 2*size {
		t.Errorf("ascending 4 KB touches of a %d-byte segment allocated %d bytes, want at most twice the segment", size, got)
	}

	buf, dma := bytes.Repeat([]byte{1}, 4096), make([]byte, 0, 4096)
	if n := testing.AllocsPerRun(50, func() {
		if err := pr.EpB.ReadBuf(nil, size/2, buf); err != nil {
			t.Fatal(err)
		}
		dma = pr.EpB.DevReadSegmentAppend(dma[:0], size-4096, 4096)
	}); n != 0 {
		t.Errorf("reading never-written bytes allocates %v times per read, want 0", n)
	}
	if zero := make([]byte, 4096); !bytes.Equal(buf, zero) || !bytes.Equal(dma, zero) {
		t.Error("never-written bytes do not read as zeros")
	}
}

// TestInlineDescriptorSurvivesGrowth pins the residency rule's one sharp
// edge (DESIGN.md §10): an inline descriptor aliases the array the segment
// had when DescAt cut it, growth moves the segment to a new array, and the
// NI must still transmit the bytes the sender staged.
func TestInlineDescriptorSurvivesGrowth(t *testing.T) {
	tb, pr := newPair(t, unet.EndpointConfig{}, 4)
	msg := []byte("staged before the segment grew")
	var got []byte
	pr.EpB.Host().Spawn("rx", func(p *sim.Proc) {
		rd := pr.EpB.Recv(p)
		got = pr.EpB.Gather(p, rd, nil)
	})
	pr.EpA.Host().Spawn("tx", func(p *sim.Proc) {
		if err := pr.EpA.Compose(p, pr.StageA, msg); err != nil {
			t.Error(err)
		}
		d := pr.EpA.DescAt(pr.ChA, pr.StageA, len(msg))
		if err := pr.EpA.Send(p, d); err != nil {
			t.Error(err)
		}
		// Still queued: the NI pops it only once this process yields. Touch
		// the far end of the segment, which reallocates the prefix.
		far := pr.EpA.Config().SegmentSize - 8
		if err := pr.EpA.Compose(nil, far, []byte("far away")); err != nil {
			t.Error(err)
		}
		if again := pr.EpA.DescAt(pr.ChA, pr.StageA, len(msg)); &again.Inline[0] == &d.Inline[0] {
			t.Error("the segment did not move; the test no longer exercises growth")
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
