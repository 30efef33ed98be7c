package nic

import (
	"slices"
	"testing"
	"unsafe"

	"unet/internal/atm"
	"unet/internal/fabric"
	"unet/internal/unet"
)

// TestOpenChannelGrowthIsAmortised opens channels the way a device with
// many channels sees them — its downlink's labels, lowest first; strided
// when explicit routes chose the tags — and the two orders that grow the
// table at its base: labels in descending order, and one label below
// fabric.FirstUserVCI halfway through, as an explicit route's Take marks on
// a link. It bounds the bytes of every backing array the demux table moved
// through by a constant times the table it ends up with, and checks that
// the table spans only the labels opened. Growing to exactly the new span
// on every call allocates it afresh once per channel: channels/2 times the
// final size (32x for the 64-host mesh, 512x for 1024 channels).
//
// append's growth step eases from 2x below 256 entries to 1.25x, so the
// constant is under 3 up to ~2000 entries and creeps towards 5 beyond; the
// strided case is 63 channels spread over 4032 VCIs — one device of a
// 64-host mesh whose tags come from one fabric-wide counter.
func TestOpenChannelGrowthIsAmortised(t *testing.T) {
	rising := func(channels, stride int) []atm.VCI {
		rx := make([]atm.VCI, channels)
		for i := range rx {
			rx[i] = fabric.FirstUserVCI + atm.VCI(i*stride)
		}
		return rx
	}
	descending := rising(1024, 1)
	slices.Reverse(descending)
	for _, tc := range []struct {
		name  string
		rx    []atm.VCI
		span  int
		bound int
	}{
		{"rising", rising(1024, 1), 1024, 3},
		{"stride2", rising(1024, 2), 2047, 3},
		{"stride64", rising(63, 64), 3969, 5},
		{"descending", descending, 1024, 3},
		{"below-reserved", slices.Insert(rising(1024, 1), 512, 5), 1051, 3},
	} {
		d := &Device{}
		ep := new(unet.Endpoint)
		size := func() uint64 {
			return uint64(cap(d.table.Rows())) * uint64(unsafe.Sizeof(vciEntry{}))
		}
		var got uint64
		for i, rx := range tc.rx {
			before := size()
			if err := d.OpenChannel(ep, unet.ChannelID(i), rx, rx); err != nil {
				t.Fatal(err)
			}
			if size() != before {
				got += size()
			}
		}
		if d.TableLen() != tc.span {
			t.Fatalf("%s: table has %d entries, want %d", tc.name, d.TableLen(), tc.span)
		}
		if final := size(); got > uint64(tc.bound)*final {
			t.Errorf("%s: growth allocated %d bytes for a %d-byte table (%.1fx), want at most %dx",
				tc.name, got, final, float64(got)/float64(final), tc.bound)
		}
	}
}

// TestDeviceSize pins the device to the 576-byte allocator size class: a
// fabric builds one per host (clos64 builds 64 a repetition), and a 577th
// byte would put each in the 640-byte class.
func TestDeviceSize(t *testing.T) {
	if got := unsafe.Sizeof(Device{}); got > 576 {
		t.Fatalf("sizeof(Device) = %d, want at most 576", got)
	}
}
