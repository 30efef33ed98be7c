package nic

import (
	"testing"
	"unsafe"

	"unet/internal/atm"
	"unet/internal/unet"
)

// TestOpenChannelGrowthIsAmortised opens channels on rising VCIs the way a
// device with many channels sees them (its downlink's labels, lowest first;
// strided when explicit routes chose the tags) and bounds the bytes of every backing array the demux table moved through by
// a constant times the table it ends up with. Growing to exactly rx+1 on
// every call — what the table did before — allocates it afresh once per
// channel: channels/2 times the final size (32x for the 64-host mesh, 512x
// for 1024 channels).
//
// append's growth step eases from 2x below 256 entries to 1.25x, so the
// constant is under 3 up to ~2000 entries and creeps towards 5 beyond; the
// last case is 63 channels spread over 4032 VCIs — one device of a 64-host
// mesh whose tags come from one fabric-wide counter — which measures 3.3x.
func TestOpenChannelGrowthIsAmortised(t *testing.T) {
	for _, tc := range []struct{ channels, stride, bound int }{
		{1024, 1, 3},
		{1024, 2, 3},
		{63, 64, 5},
	} {
		d := &Device{}
		ep := new(unet.Endpoint)
		var got uint64
		for i := 0; i < tc.channels; i++ {
			rx := atm.VCI(32 + i*tc.stride)
			before := cap(d.table)
			if err := d.OpenChannel(ep, unet.ChannelID(i), rx, rx); err != nil {
				t.Fatal(err)
			}
			if cap(d.table) != before {
				got += uint64(cap(d.table)) * uint64(unsafe.Sizeof(vciEntry{}))
			}
		}
		if want := 32 + (tc.channels-1)*tc.stride + 1; len(d.table) != want {
			t.Fatalf("%d channels, stride %d: table has %d entries, want %d", tc.channels, tc.stride, len(d.table), want)
		}
		final := uint64(cap(d.table)) * uint64(unsafe.Sizeof(vciEntry{}))
		if got > uint64(tc.bound)*final {
			t.Errorf("%d channels, stride %d: growth allocated %d bytes for a %d-byte table (%.1fx), want at most %dx",
				tc.channels, tc.stride, got, final, float64(got)/float64(final), tc.bound)
		}
	}
}
