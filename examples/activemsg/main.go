// Active Messages on an 8-node cluster: a tiny distributed key-value
// service built on U-Net Active Messages (paper §5).
//
// Node 0 acts as a directory server; the other seven nodes issue lookup
// requests (single-cell Active Messages) and bulk-store their results into
// the server's memory with GAM block stores. The example prints the
// request/reply latencies observed and the final protocol statistics —
// note how few explicit acks the reliable layer needed.
//
// Run with: go run ./examples/activemsg
package main

import (
	"encoding/binary"
	"fmt"
	"log"
	"time"

	"unet/internal/sim"
	"unet/internal/testbed"
	"unet/internal/uam"
)

const (
	hLookup = 1 // request: key -> handler replies with value
	hReply  = 2
	hStored = 3 // bulk-store completion
)

func main() {
	const nodes = 8
	tb := testbed.New(testbed.Config{Hosts: nodes})
	defer tb.Close()

	// One UAM instance per node, fully connected (each pair gets a
	// channel and preallocated 4w buffers, §5.1.1).
	us := make([]*uam.UAM, nodes)
	for i := range us {
		var err error
		us[i], err = uam.New(tb.Hosts[i].NewProcess("kv"), i, uam.Config{MaxPeers: nodes})
		if err != nil {
			log.Fatal(err)
		}
	}
	for i := 0; i < nodes; i++ {
		for j := i + 1; j < nodes; j++ {
			if err := uam.Connect(tb.Manager, us[i], us[j]); err != nil {
				log.Fatal(err)
			}
		}
	}

	// The server's handler runs when the message is pulled out of the
	// network; it replies with the "value" (key squared).
	server := us[0]
	server.RegisterHandler(hLookup, func(u *uam.UAM, p *sim.Proc, src int, key uint32, data []byte) {
		var val [4]byte
		binary.BigEndian.PutUint32(val[:], key*key)
		if err := u.Reply(p, hReply, key, val[:]); err != nil {
			log.Fatal(err)
		}
	})
	stored := 0
	server.RegisterHandler(hStored, func(u *uam.UAM, p *sim.Proc, src int, arg uint32, data []byte) {
		stored++
	})

	serving := true
	tb.Hosts[0].Spawn("server", func(p *sim.Proc) {
		for serving {
			server.PollWait(p, time.Millisecond)
		}
	})

	done := 0
	for i := 1; i < nodes; i++ {
		i := i
		u := us[i]
		u.RegisterHandler(hReply, func(_ *uam.UAM, p *sim.Proc, src int, key uint32, data []byte) {
			// reply handlers may not reply (§5) — just record the value.
			_ = binary.BigEndian.Uint32(data)
		})
		tb.Hosts[i].Spawn("client", func(p *sim.Proc) {
			// Latency-bound phase: 20 request/reply lookups.
			t0 := p.Now()
			for k := 0; k < 20; k++ {
				if err := u.Request(p, 0, hLookup, uint32(i*100+k), nil); err != nil {
					log.Fatal(err)
				}
				u.PollWait(p, time.Millisecond)
			}
			rtt := (p.Now() - t0) / 20
			fmt.Printf("node %d: mean lookup round trip %v\n", i, rtt.Round(100*time.Nanosecond))

			// Bandwidth-bound phase: bulk-store 64 KB of results into the
			// server's memory region at a per-client offset.
			blob := make([]byte, 64<<10)
			for b := range blob {
				blob[b] = byte(i)
			}
			if err := u.Store(p, 0, (i-1)*(64<<10), blob, hStored, uint32(i)); err != nil {
				log.Fatal(err)
			}
			u.Flush(p, 0)
			done++
		})
	}

	// Stop the server once all clients are finished.
	tb.Hosts[0].Spawn("supervisor", func(p *sim.Proc) {
		for done < nodes-1 {
			p.Sleep(time.Millisecond)
		}
		p.Sleep(5 * time.Millisecond) // grace: absorb final acks
		serving = false
	})

	tb.Eng.Run()

	st := server.Stats()
	fmt.Printf("\nserver at %v: %d requests, %d bulk stores completed\n",
		tb.Eng.Now().Round(time.Microsecond), st.ReqRecv, stored)
	fmt.Printf("reliability: %d store segments, %d retransmissions, %d explicit acks sent\n",
		st.StoreSegs, st.Retransmits, st.AcksSent)
	for i := 1; i < 3; i++ {
		fmt.Printf("server memory from node %d starts with % x\n", i, server.Mem((i-1)*(64<<10), 4))
	}
}
