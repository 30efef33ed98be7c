// Quickstart: two simulated workstations, one ATM switch, raw U-Net.
//
// The program builds the smallest possible U-Net deployment, walks through
// the §3 architecture by hand — create endpoints, connect a channel,
// provide receive buffers, push a send descriptor, poll the receive queue
// — and prints the virtual-time cost of each step.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"time"

	"unet/internal/sim"
	"unet/internal/testbed"
	"unet/internal/unet"
)

func main() {
	// A 2-host cluster: SPARCstation-20-class nodes, SBA-200 interfaces
	// running the U-Net firmware, one ASX-200 switch.
	tb := testbed.New(testbed.Config{Hosts: 2})
	defer tb.Close()

	// Endpoints are created through the kernel (the only kernel
	// involvement — §3.1): each gets a communication segment and
	// send/receive/free queues.
	alice := tb.Hosts[0].NewProcess("alice")
	bob := tb.Hosts[1].NewProcess("bob")
	epA, err := tb.Hosts[0].Kernel.CreateEndpoint(nil, alice, unet.EndpointConfig{})
	if err != nil {
		log.Fatal(err)
	}
	epB, err := tb.Hosts[1].Kernel.CreateEndpoint(nil, bob, unet.EndpointConfig{})
	if err != nil {
		log.Fatal(err)
	}

	// The network manager allocates the VCI pair, programs the switch and
	// registers the tags with both interfaces (§3.2).
	ch, err := tb.Manager.Connect(nil, epA, epB)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("channel established: VCIs %d/%d\n", ch.AtoB, ch.BtoA)

	// Bob hands receive buffers to his interface through the free queue.
	if _, err := epB.ProvideRecvBuffers(nil, 0, 8); err != nil {
		log.Fatal(err)
	}

	// Bob blocks on his receive queue; Alice sends one small message
	// (single-cell fast path) and one 2 KB message (buffered path).
	tb.Hosts[1].Spawn("bob", func(p *sim.Proc) {
		for i := 0; i < 2; i++ {
			rd := epB.Recv(p)
			if rd.Inline != nil {
				// Read in place — the true zero copy of §3.4 — then Release:
				// nothing to copy, no buffers to return, only the NI's
				// pooled inline slab.
				fmt.Printf("[%8v] bob: %d B inline (single-cell fast path): %q\n",
					p.Now().Round(time.Microsecond), rd.Length, rd.Inline)
				epB.Release(p, rd)
				continue
			}
			// Gather is the receive half of the buffer discipline in one
			// call: copy the data out of the receive buffers (charged per
			// byte), push each buffer back on the free queue (charged per
			// push) and return the descriptor's offset list to the NI.
			nbuf := len(rd.Buffers)
			data := epB.Gather(p, rd, nil)
			fmt.Printf("[%8v] bob: %d B via %d receive buffer(s), first bytes %q...\n",
				p.Now().Round(time.Microsecond), len(data), nbuf, data[:12])
		}
	})

	tb.Hosts[0].Spawn("alice", func(p *sim.Proc) {
		t0 := p.Now()
		// Small message: data travels inside the descriptor (§3.4).
		if err := epA.Send(p, unet.SendDesc{Channel: ch.ChanA, Inline: []byte("hello U-Net")}); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("[%8v] alice: small send queued (%v of CPU)\n",
			p.Now().Round(time.Microsecond), p.Now()-t0)

		// Larger message: composed in the communication segment first.
		stage := testbed.SendBase(epA, 0)
		payload := make([]byte, 2048)
		copy(payload, "two kilobytes of application data")
		if err := epA.Compose(p, stage, payload); err != nil {
			log.Fatal(err)
		}
		if err := epA.Send(p, unet.SendDesc{Channel: ch.ChanA, Offset: stage, Length: len(payload)}); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("[%8v] alice: 2 KB send queued\n", p.Now().Round(time.Microsecond))
	})

	tb.Eng.Run()
	fmt.Printf("simulation quiescent at %v; endpoint B stats: %+v\n",
		tb.Eng.Now().Round(time.Microsecond), epB.Stats())
}
