package nic_test

import (
	"testing"

	"unet/internal/atm"
	"unet/internal/testbed"
	"unet/internal/topo"
	"unet/internal/unet"
)

// TestDemuxTableSpansOwnChannels: receive labels are local to the device's
// downlink and reused lowest-first, and a table spans only the labels in
// use, so a device's demux table is as long as the channels open on that
// device — not as the VCIs the whole fabric has handed out, and without
// rows for the labels below fabric.FirstUserVCI. Every switch input port's
// table is likewise as long as the circuits its incoming link carries: one
// route each.
func TestDemuxTableSpansOwnChannels(t *testing.T) {
	t.Run("mesh64", func(t *testing.T) {
		tb := testbed.New(testbed.Config{Topology: topo.Clos2(8, 8, 2)})
		t.Cleanup(tb.Close)
		if _, err := tb.NewMesh(unet.EndpointConfig{}, 0); err != nil {
			t.Fatal(err)
		}
		checkTables(t, tb, 63)
	})
	t.Run("island1k", func(t *testing.T) {
		// The gossip overlay: every island talks to its ring neighbors and
		// its antipode.
		const n = 1024
		tb := testbed.New(testbed.Config{Topology: topo.Island(n, 1)})
		t.Cleanup(tb.Close)
		eps := make([]*unet.Endpoint, n)
		for i := range eps {
			ep, err := tb.Hosts[i].Kernel.CreateEndpoint(nil, tb.Hosts[i].NewProcess("app"), unet.EndpointConfig{})
			if err != nil {
				t.Fatal(err)
			}
			eps[i] = ep
		}
		connect := func(i, j int) {
			if _, err := tb.Manager.Connect(nil, eps[i], eps[j]); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < n; i++ {
			connect(i, (i+1)%n)
			if i < n/2 {
				connect(i, i+n/2)
			}
		}
		checkTables(t, tb, 3)
	})
}

func checkTables(t *testing.T, tb *testbed.Testbed, channels int) {
	t.Helper()
	for i, d := range tb.Devices {
		if got := d.TableLen(); got > channels {
			t.Fatalf("host %d: demux table has %d rows for %d channels", i, got, channels)
		}
	}
	for j, sw := range tb.Topo.Switches {
		for p := 0; p < sw.Ports(); p++ {
			base, rows := sw.TableSpan(p)
			circuits := 0
			for v := int(base); v < int(base)+rows; v++ {
				if _, _, ok := sw.Lookup(p, atm.VCI(v)); ok {
					circuits++
				}
			}
			if rows > circuits {
				t.Fatalf("switch %d input port %d: table has %d rows for %d circuits", j, p, rows, circuits)
			}
		}
	}
}
