// TCP over U-Net with injected cell loss: an echo session that makes the
// §7.7-7.8 reliability machinery visible.
//
// A client transfers 256 KB to an echo server over U-Net TCP while the
// switch drops a burst of ATM cells mid-stream. One lost cell discards a
// whole AAL5 segment (Romanow & Floyd's observation), so TCP must recover
// — with its 1 ms timers and fast retransmit the stall is barely visible,
// which is the paper's argument for user-level protocol timing. The
// program prints throughput and the retransmission statistics.
//
// Run with: go run ./examples/tcpecho [-loss 5]
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"unet/internal/atm"
	"unet/internal/faults"
	"unet/internal/ip/tcp"
	"unet/internal/sim"
	"unet/internal/testbed"
)

func main() {
	lossCells := flag.Int("loss", 5, "number of consecutive cells to drop mid-stream")
	flag.Parse()

	tb := testbed.New(testbed.Config{Hosts: 2})
	defer tb.Close()
	ca, cb, err := tb.NewIPConduitPair(0, 1)
	if err != nil {
		log.Fatal(err)
	}
	client := tcp.New(ca, 43210, 7, tcp.DefaultParams())
	server := tcp.New(cb, 7, 43210, tcp.DefaultParams())

	// Drop a burst of cells on the server's downlink mid-transfer.
	cell := 0
	tb.Topo.Downlink(1).SetInjector(faults.DropIf(func(atm.Cell) bool {
		cell++
		return cell >= 2000 && cell < 2000+*lossCells
	}))

	const total = 256 << 10
	payload := make([]byte, total)
	for i := range payload {
		payload[i] = byte(i % 251)
	}

	tb.Hosts[1].Spawn("echo-server", func(p *sim.Proc) {
		if err := server.Accept(p, time.Second); err != nil {
			log.Fatal(err)
		}
		buf := make([]byte, 32<<10)
		echoed := 0
		for echoed < total {
			n, err := server.Read(p, buf, time.Second)
			if err != nil {
				log.Fatalf("server read: %v", err)
			}
			if n == 0 {
				continue
			}
			if err := server.Write(p, buf[:n]); err != nil {
				log.Fatalf("server write: %v", err)
			}
			echoed += n
		}
		for k := 0; k < 50; k++ {
			server.Poll(p)
			p.Sleep(time.Millisecond)
		}
	})

	tb.Hosts[0].Spawn("client", func(p *sim.Proc) {
		if err := client.Dial(p, time.Second); err != nil {
			log.Fatal(err)
		}
		start := p.Now()
		got := make([]byte, 0, total)
		buf := make([]byte, 32<<10)
		sent := 0
		for len(got) < total {
			if sent < total {
				chunk := min(8192, total-sent)
				if err := client.Write(p, payload[sent:sent+chunk]); err != nil {
					log.Fatal(err)
				}
				sent += chunk
			}
			n, err := client.Read(p, buf, 100*time.Millisecond)
			if err != nil {
				log.Fatalf("client read: %v", err)
			}
			got = append(got, buf[:n]...)
		}
		elapsed := p.Now() - start
		for i := range got {
			if got[i] != payload[i] {
				log.Fatalf("echo corrupted at byte %d", i)
			}
		}
		fmt.Printf("echoed %d KB in %v of virtual time — %.2f MB/s each way\n",
			total>>10, elapsed.Round(time.Microsecond),
			float64(total)/elapsed.Seconds()/1e6)
	})

	tb.Eng.Run()
	cs, ss := client.Stats(), server.Stats()
	fmt.Printf("client: %d segments out, %d retransmits (%d fast), %d timeouts\n",
		cs.SegsOut, cs.Retransmits, cs.FastRetransmits, cs.Timeouts)
	fmt.Printf("server: %d segments out, %d retransmits (%d fast), %d timeouts\n",
		ss.SegsOut, ss.Retransmits, ss.FastRetransmits, ss.Timeouts)
	fmt.Printf("(dropped %d cells on the wire — every loss cost a whole AAL5 segment)\n", *lossCells)
}
