package unet

import (
	"bytes"
	"testing"
	"unsafe"
)

// TestSegmentWorstCase bounds what the laziness can cost: a segment touched
// in ascending 4 KB steps — the pattern exact-fit growth recopies at every
// step — allocates at most twice its size in total, and reading bytes
// nobody ever wrote returns zeros and allocates nothing. The total is the
// segment's own, the length of every array it moves to, where the
// process-wide allocation counters would also count whatever else runs.
func TestSegmentWorstCase(t *testing.T) {
	const size = 1 << 20
	ep := &Endpoint{seg: NewBacking(size)}
	array := func() unsafe.Pointer { return unsafe.Pointer(unsafe.SliceData(ep.seg.b)) }
	page := bytes.Repeat([]byte{0xA5}, 4096)
	allocated, last := 0, array()
	for off := 0; off < size; off += len(page) {
		if err := ep.Compose(nil, off, page); err != nil {
			t.Fatal(err)
		}
		if a := array(); a != last {
			last, allocated = a, allocated+cap(ep.seg.b)
		}
	}
	if allocated > 2*size {
		t.Errorf("ascending 4 KB touches of a %d-byte segment allocated %d bytes, want at most twice the segment", size, allocated)
	}

	rd := &Endpoint{seg: NewBacking(size)}
	buf, dma := bytes.Repeat([]byte{1}, 4096), make([]byte, 0, 4096)
	if n := testing.AllocsPerRun(50, func() {
		if err := rd.ReadBuf(nil, size/2, buf); err != nil {
			t.Fatal(err)
		}
		dma = rd.DevReadSegmentAppend(dma[:0], size-4096, 4096)
	}); n != 0 {
		t.Errorf("reading never-written bytes allocates %v times per read, want 0", n)
	}
	if zero := make([]byte, 4096); !bytes.Equal(buf, zero) || !bytes.Equal(dma, zero) {
		t.Error("never-written bytes do not read as zeros")
	}
}
