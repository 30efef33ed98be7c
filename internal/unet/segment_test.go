package unet

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
	"unsafe"
)

// TestSegmentWorstCase bounds what the laziness can cost: a segment touched
// 4 KB at a time — ascending, descending or at seeded random offsets — holds
// exactly the pages those touches reached, 1 KiB each, plus its directory,
// whatever the order; and reading bytes nobody ever wrote returns zeros and
// allocates nothing. The totals are the segment's own, every array a page or
// the directory is ever cut from, where the process-wide allocation counters
// would also count whatever else runs.
func TestSegmentWorstCase(t *testing.T) {
	const size, touch = 1 << 20, 4096
	var ascending, descending, random []int
	for off := 0; off < size; off += touch {
		ascending = append(ascending, off)
	}
	descending = slices.Clone(ascending)
	slices.Reverse(descending)
	rng := rand.New(rand.NewSource(1))
	for range 200 {
		random = append(random, rng.Intn(size-touch+1))
	}
	data := bytes.Repeat([]byte{0xA5}, touch)
	headerSize := int(unsafe.Sizeof([]byte(nil)))
	for _, order := range []struct {
		name string
		offs []int
	}{{"ascending", ascending}, {"descending", descending}, {"random", random}} {
		ep := &Endpoint{seg: NewBacking(size)}
		arrays := map[unsafe.Pointer]int{}
		touched := map[int]bool{}
		dirBytes, dir := 0, unsafe.Pointer(nil)
		for _, off := range order.offs {
			if err := ep.Compose(nil, off, data); err != nil {
				t.Fatal(err)
			}
			for i := off / pageSize; i <= (off+touch-1)/pageSize; i++ {
				touched[i] = true
			}
			// A page whose predecessor's run ends before it heads an array,
			// and its capacity is that array's length.
			for i, pg := range ep.seg.pages {
				if pg != nil && (i == 0 || cap(ep.seg.pages[i-1]) == len(ep.seg.pages[i-1])) {
					arrays[unsafe.Pointer(unsafe.SliceData(pg))] = cap(pg)
				}
			}
			if d := unsafe.Pointer(unsafe.SliceData(ep.seg.pages)); d != dir {
				dir, dirBytes = d, dirBytes+cap(ep.seg.pages)*headerSize
			}
		}
		pageBytes := 0
		for _, n := range arrays {
			pageBytes += n
		}
		if want := len(touched) * pageSize; pageBytes != want {
			t.Errorf("%s 4 KB touches: the pages' arrays hold %d bytes, want exactly the %d pages touched × 1 KiB = %d", order.name, pageBytes, len(touched), want)
		}
		// Capacities that double sum to less than twice the one before the
		// last, and the last is at most one header a page.
		if limit := 3 * size / pageSize * headerSize; dirBytes > limit {
			t.Errorf("%s 4 KB touches: the directory allocated %d bytes, want at most %d (three headers a page)", order.name, dirBytes, limit)
		}
	}

	rd := &Endpoint{seg: NewBacking(size)}
	buf, dma := bytes.Repeat([]byte{1}, 4096), make([]byte, 0, 4096)
	if n := testing.AllocsPerRun(50, func() {
		if err := rd.ReadBuf(nil, size/2, buf); err != nil {
			t.Fatal(err)
		}
		dma = dma[:0]
		for off := size - 4096; off < size; {
			b := rd.DevSegment().Piece(off, size-off)
			dma, off = append(dma, b...), off+len(b)
		}
	}); n != 0 {
		t.Errorf("reading never-written bytes allocates %v times per read, want 0", n)
	}
	if zero := make([]byte, 4096); !bytes.Equal(buf, zero) || !bytes.Equal(dma, zero) {
		t.Error("never-written bytes do not read as zeros")
	}
}
