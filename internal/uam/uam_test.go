package uam_test

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"unet/internal/atm"
	"unet/internal/faults"
	"unet/internal/sim"
	"unet/internal/testbed"
	"unet/internal/uam"
)

// fixture builds n connected UAM nodes on an n-host cluster.
func fixture(t *testing.T, n int, cfg uam.Config) (*testbed.Testbed, []*uam.UAM) {
	t.Helper()
	tb := testbed.New(testbed.Config{Hosts: n})
	t.Cleanup(tb.Close)
	us := make([]*uam.UAM, n)
	for i := 0; i < n; i++ {
		var err error
		us[i], err = uam.New(tb.Hosts[i].NewProcess("am"), i, cfg)
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if err := uam.Connect(tb.Manager, us[i], us[j]); err != nil {
				t.Fatal(err)
			}
		}
	}
	return tb, us
}

func TestRequestReply(t *testing.T) {
	tb, us := fixture(t, 2, uam.Config{})
	var gotReq, gotReply []byte
	var gotArg uint32
	done := false
	us[1].RegisterHandler(1, func(u *uam.UAM, p *sim.Proc, src int, arg uint32, data []byte) {
		gotReq = append([]byte(nil), data...)
		gotArg = arg
		if err := u.Reply(p, 2, arg+1, []byte("pong")); err != nil {
			t.Error(err)
		}
	})
	us[0].RegisterHandler(2, func(u *uam.UAM, p *sim.Proc, src int, arg uint32, data []byte) {
		gotReply = append([]byte(nil), data...)
		done = true
	})
	us[0].RegisterHandler(1, func(u *uam.UAM, p *sim.Proc, src int, arg uint32, data []byte) {})
	us[1].RegisterHandler(2, func(u *uam.UAM, p *sim.Proc, src int, arg uint32, data []byte) {})

	tb.Hosts[1].Spawn("srv", func(p *sim.Proc) {
		for !done && p.Now() < 10*time.Millisecond {
			us[1].PollWait(p, time.Millisecond)
		}
	})
	tb.Hosts[0].Spawn("cli", func(p *sim.Proc) {
		if err := us[0].Request(p, 1, 1, 41, []byte("ping")); err != nil {
			t.Error(err)
		}
		for !done && p.Now() < 10*time.Millisecond {
			us[0].PollWait(p, time.Millisecond)
		}
	})
	tb.Eng.Run()
	if !bytes.Equal(gotReq, []byte("ping")) || gotArg != 41 {
		t.Fatalf("request: data=%q arg=%d", gotReq, gotArg)
	}
	if !bytes.Equal(gotReply, []byte("pong")) {
		t.Fatalf("reply: %q", gotReply)
	}
}

func TestReplyOutsideHandlerRejected(t *testing.T) {
	tb, us := fixture(t, 2, uam.Config{})
	us[0].RegisterHandler(1, func(u *uam.UAM, p *sim.Proc, src int, arg uint32, data []byte) {})
	var err error
	tb.Hosts[0].Spawn("p", func(p *sim.Proc) { err = us[0].Reply(p, 1, 0, nil) })
	tb.Eng.Run()
	if !errors.Is(err, uam.ErrReplyCtx) {
		t.Fatalf("err = %v, want ErrReplyCtx", err)
	}
}

func TestReplyFromReplyHandlerRejected(t *testing.T) {
	tb, us := fixture(t, 2, uam.Config{})
	var replyErr error
	done := false
	us[1].RegisterHandler(1, func(u *uam.UAM, p *sim.Proc, src int, arg uint32, data []byte) {
		u.Reply(p, 2, 0, nil)
	})
	us[0].RegisterHandler(2, func(u *uam.UAM, p *sim.Proc, src int, arg uint32, data []byte) {
		replyErr = u.Reply(p, 2, 0, nil) // must be rejected: live-lock rule
		done = true
	})
	us[0].RegisterHandler(1, func(u *uam.UAM, p *sim.Proc, src int, arg uint32, data []byte) {})
	us[1].RegisterHandler(2, func(u *uam.UAM, p *sim.Proc, src int, arg uint32, data []byte) {})
	tb.Hosts[1].Spawn("srv", func(p *sim.Proc) {
		for !done && p.Now() < 5*time.Millisecond {
			us[1].PollWait(p, time.Millisecond)
		}
	})
	tb.Hosts[0].Spawn("cli", func(p *sim.Proc) {
		us[0].Request(p, 1, 1, 0, nil)
		for !done && p.Now() < 5*time.Millisecond {
			us[0].PollWait(p, time.Millisecond)
		}
	})
	tb.Eng.Run()
	if !errors.Is(replyErr, uam.ErrReplyCtx) {
		t.Fatalf("reply-from-reply err = %v, want ErrReplyCtx", replyErr)
	}
}

func TestUnknownDestinationAndHandler(t *testing.T) {
	tb, us := fixture(t, 2, uam.Config{})
	defer tb.Eng.Shutdown()
	us[0].RegisterHandler(1, func(u *uam.UAM, p *sim.Proc, src int, arg uint32, data []byte) {})
	if err := us[0].Request(nil, 7, 1, 0, nil); !errors.Is(err, uam.ErrNoPeer) {
		t.Fatalf("unknown dst: %v, want ErrNoPeer", err)
	}
	if err := us[0].Request(nil, 1, 300, 0, nil); !errors.Is(err, uam.ErrBadHandler) {
		t.Fatalf("out-of-range handler: %v, want ErrBadHandler", err)
	}
}

func TestStoreDeliversToRemoteMemory(t *testing.T) {
	tb, us := fixture(t, 2, uam.Config{})
	payload := bytes.Repeat([]byte{0xC3, 0x3C}, 5000) // 10 KB: 3 segments
	const dst = 4096
	completed := false
	us[1].RegisterHandler(3, func(u *uam.UAM, p *sim.Proc, src int, arg uint32, data []byte) {
		if arg == 777 {
			completed = true
		}
	})
	tb.Hosts[1].Spawn("srv", func(p *sim.Proc) {
		for !completed && p.Now() < 20*time.Millisecond {
			us[1].PollWait(p, time.Millisecond)
		}
		// Keep servicing the network briefly: polling-based UAM only acks
		// and absorbs retransmissions while the application polls, so a
		// peer that is still Flushing needs us alive (§5.1.2).
		for k := 0; k < 30; k++ {
			us[1].Poll(p)
			p.Sleep(200 * time.Microsecond)
		}
	})
	tb.Hosts[0].Spawn("cli", func(p *sim.Proc) {
		if err := us[0].Store(p, 1, dst, payload, 3, 777); err != nil {
			t.Error(err)
		}
		us[0].Flush(p, 1)
	})
	tb.Eng.Run()
	if !completed {
		t.Fatal("completion handler never ran")
	}
	if !bytes.Equal(us[1].Mem(dst, len(payload)), payload) {
		t.Fatal("stored data mismatch")
	}
}

func TestGetFetchesRemoteMemory(t *testing.T) {
	tb, us := fixture(t, 2, uam.Config{})
	want := bytes.Repeat([]byte{7, 8, 9}, 4000) // 12 KB
	copy(us[1].Mem(1000, len(want)), want)
	srvDone := false
	tb.Hosts[1].Spawn("srv", func(p *sim.Proc) {
		for !srvDone && p.Now() < 50*time.Millisecond {
			us[1].PollWait(p, time.Millisecond)
		}
	})
	tb.Hosts[0].Spawn("cli", func(p *sim.Proc) {
		tag, err := us[0].Get(p, 1, 1000, 2000, len(want))
		if err != nil {
			t.Error(err)
			srvDone = true
			return
		}
		if err := us[0].WaitGet(p, tag); err != nil {
			t.Error(err)
		}
		srvDone = true
	})
	tb.Eng.Run()
	if !bytes.Equal(us[0].Mem(2000, len(want)), want) {
		t.Fatal("fetched data mismatch")
	}
}

// TestGetReadsMemoryWhenStaged: each get-data segment carries the source's
// memory as it is when the source stages that segment into its window slot,
// after the drain every send starts with (§5.1.2). A store its requester
// issued after the get, already queued at the source, therefore lands
// before the first segment is read, and every segment, of a one-segment get
// and of a three-segment one, returns the stored bytes. Overlapping gets and
// stores from one node are ordered by WaitGet, as split-phase operations.
func TestGetReadsMemoryWhenStaged(t *testing.T) {
	for _, n := range []int{64, 10000} {
		tb, us := fixture(t, 2, uam.Config{})
		copy(us[1].Mem(0, n), bytes.Repeat([]byte{1}, n))
		stored := bytes.Repeat([]byte{2}, n)
		const dst = 1 << 15
		tb.Hosts[1].Spawn("srv", func(p *sim.Proc) {
			p.Sleep(2 * time.Millisecond) // the get and the store's segments are queued by now
			for p.Now() < 30*time.Millisecond {
				us[1].PollWait(p, time.Millisecond)
			}
		})
		tb.Hosts[0].Spawn("cli", func(p *sim.Proc) {
			tag, err := us[0].Get(p, 1, 0, dst, n)
			if err == nil {
				err = us[0].Store(p, 1, 0, stored, 0, 0)
			}
			if err == nil {
				err = us[0].WaitGet(p, tag)
			}
			if err != nil {
				t.Error(err)
			}
			us[0].Flush(p, 1)
		})
		tb.Eng.Run()
		if got := us[0].Mem(dst, n); !bytes.Equal(got, stored) {
			t.Errorf("%d-byte get: %d bytes read before the queued store, want none", n, n-bytes.Count(got, []byte{2}))
		}
		if !bytes.Equal(us[1].Mem(0, n), stored) {
			t.Errorf("%d-byte get: the store did not land", n)
		}
	}
}

func TestWindowLimitsOutstanding(t *testing.T) {
	cfg := uam.Config{Window: 4}
	tb, us := fixture(t, 2, cfg)
	const n = 40
	recv := 0
	us[1].RegisterHandler(1, func(u *uam.UAM, p *sim.Proc, src int, arg uint32, data []byte) { recv++ })
	tb.Hosts[1].Spawn("srv", func(p *sim.Proc) {
		for recv < n && p.Now() < 50*time.Millisecond {
			us[1].PollWait(p, time.Millisecond)
		}
		// Keep servicing the network briefly: polling-based UAM only acks
		// and absorbs retransmissions while the application polls, so a
		// peer that is still Flushing needs us alive (§5.1.2).
		for k := 0; k < 30; k++ {
			us[1].Poll(p)
			p.Sleep(200 * time.Microsecond)
		}
	})
	tb.Hosts[0].Spawn("cli", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			if err := us[0].Request(p, 1, 1, uint32(i), nil); err != nil {
				t.Error(err)
				return
			}
		}
		us[0].Flush(p, 1)
	})
	tb.Eng.Run()
	if recv != n {
		t.Fatalf("received %d, want %d", recv, n)
	}
}

func TestRetransmissionRecoversFromCellLoss(t *testing.T) {
	tb, us := fixture(t, 2, uam.Config{RetransmitTimeout: 500 * time.Microsecond})
	// Drop cells 3-7 on host 1's downlink: several early messages vanish
	// and must be recovered by go-back-N.
	i := 0
	tb.Topo.Downlink(1).SetInjector(faults.DropIf(func(atm.Cell) bool {
		i++
		return i >= 3 && i <= 7
	}))
	const n = 20
	var got []uint32
	us[1].RegisterHandler(1, func(u *uam.UAM, p *sim.Proc, src int, arg uint32, data []byte) {
		got = append(got, arg)
	})
	tb.Hosts[1].Spawn("srv", func(p *sim.Proc) {
		for len(got) < n && p.Now() < 100*time.Millisecond {
			us[1].PollWait(p, time.Millisecond)
		}
		// Keep servicing the network briefly: polling-based UAM only acks
		// and absorbs retransmissions while the application polls, so a
		// peer that is still Flushing needs us alive (§5.1.2).
		for k := 0; k < 30; k++ {
			us[1].Poll(p)
			p.Sleep(200 * time.Microsecond)
		}
	})
	tb.Hosts[0].Spawn("cli", func(p *sim.Proc) {
		for k := 0; k < n; k++ {
			if err := us[0].Request(p, 1, 1, uint32(k), []byte("payload")); err != nil {
				t.Error(err)
				return
			}
		}
		us[0].Flush(p, 1)
	})
	tb.Eng.Run()
	if len(got) != n {
		t.Fatalf("delivered %d messages, want %d", len(got), n)
	}
	for k, v := range got {
		if v != uint32(k) {
			t.Fatalf("message %d out of order: arg %d (reliable stream must be in-order, exactly-once)", k, v)
		}
	}
	if us[0].Stats().Retransmits == 0 {
		t.Fatal("loss injected but no retransmissions recorded")
	}
}

func TestOversizedPayloadRejected(t *testing.T) {
	tb, us := fixture(t, 2, uam.Config{BulkMax: 1024})
	defer tb.Eng.Shutdown()
	us[0].RegisterHandler(1, func(u *uam.UAM, p *sim.Proc, src int, arg uint32, data []byte) {})
	us[1].RegisterHandler(1, func(u *uam.UAM, p *sim.Proc, src int, arg uint32, data []byte) {})
	if err := us[0].Request(nil, 1, 1, 0, make([]byte, 2048)); !errors.Is(err, uam.ErrTooLong) {
		t.Fatalf("err = %v, want ErrTooLong", err)
	}
}

func TestEightNodeAllToAll(t *testing.T) {
	tb, us := fixture(t, 8, uam.Config{})
	const per = 5
	want := 7 * per
	recv := make([]int, 8)
	for i := range us {
		i := i
		us[i].RegisterHandler(1, func(u *uam.UAM, p *sim.Proc, src int, arg uint32, data []byte) {
			recv[i]++
		})
	}
	for i := range us {
		i := i
		tb.Hosts[i].Spawn("node", func(p *sim.Proc) {
			for dst := range us {
				if dst == i {
					continue
				}
				for k := 0; k < per; k++ {
					if err := us[i].Request(p, dst, 1, uint32(k), []byte("x")); err != nil {
						t.Error(err)
						return
					}
				}
			}
			for recv[i] < want && p.Now() < 100*time.Millisecond {
				us[i].PollWait(p, time.Millisecond)
			}
			us[i].FlushAll(p)
			for k := 0; k < 30; k++ {
				us[i].Poll(p)
				p.Sleep(200 * time.Microsecond)
			}
		})
	}
	tb.Eng.Run()
	for i, r := range recv {
		if r != want {
			t.Fatalf("node %d received %d, want %d", i, r, want)
		}
	}
}

// TestBulkOutOfRange covers the three ways a bulk operation can miss the
// exposed memory, each of which used to fail silently — and the last never
// to return. What the caller can see (a negative offset, a range the 32-bit
// wire fields cannot carry) is ErrMemRange at once; a store that misses the
// destination's memory is refused there and counted; a get that misses the
// source's memory is refused and answered, so the tag retires and WaitGet
// says why. The engine runs to a deadline, not to quiescence: at the parent
// the refused get left WaitGet polling on a timer for ever.
func TestBulkOutOfRange(t *testing.T) {
	tb, us := fixture(t, 2, uam.Config{})
	var local, storeErr, flushErr, getErr, waitErr error
	var waited time.Duration
	cliDone := false
	tb.Hosts[1].Spawn("srv", func(p *sim.Proc) {
		for !cliDone && p.Now() < 40*time.Millisecond {
			us[1].PollWait(p, time.Millisecond)
		}
	})
	tb.Hosts[0].Spawn("cli", func(p *sim.Proc) {
		defer func() { cliDone = true }()
		for _, err := range []error{
			us[0].Store(p, 1, -8, make([]byte, 16), 0, 0),
			us[0].Store(p, 1, 1<<32-8, make([]byte, 16), 0, 0),
			second(us[0].Get(p, 1, -8, 0, 16)),
			second(us[0].Get(p, 1, 0, 0, -16)),
			second(us[0].Get(p, 1, 1<<32-8, 0, 16)),
			second(us[0].Get(p, 1, 0, uam.MemSize-8, 16)),
		} {
			if !errors.Is(err, uam.ErrMemRange) {
				local = err
			}
		}
		// 10 000 bytes ending 16 past the destination's memory: the first two
		// segments fit, the third does not.
		storeErr = us[0].Store(p, 1, uam.MemSize-10000+16, make([]byte, 10000), 0, 0)
		flushErr = us[0].Flush(p, 1)
		var tag uint32
		if tag, getErr = us[0].Get(p, 1, uam.MemSize, 0, 16); getErr == nil {
			t0 := p.Now()
			waitErr = us[0].WaitGet(p, tag)
			waited = p.Now() - t0
			if !us[0].GetDone(tag) {
				t.Error("the refused tag is still pending after WaitGet")
			}
		}
	})
	tb.Eng.RunUntil(50 * time.Millisecond)
	if !cliDone {
		t.Fatal("client still blocked after 50 ms of virtual time")
	}
	// The destination's counts below show that none of these sent anything.
	if local != nil {
		t.Errorf("a range the caller can see to be bad: err %v, want ErrMemRange", local)
	}
	if storeErr != nil || flushErr != nil {
		t.Errorf("store past the destination's memory: Store %v, Flush %v, want nil (the destination refuses it)", storeErr, flushErr)
	}
	if getErr != nil || !errors.Is(waitErr, uam.ErrMemRange) || waited > 5*time.Millisecond {
		t.Errorf("get past the source's memory: Get %v, WaitGet %v after %v, want nil then ErrMemRange within 5 ms", getErr, waitErr, waited)
	}
	if st := us[1].Stats(); st.StoreSegs != 3 || st.MemRangeDrops != 2 {
		t.Errorf("destination saw %d store segments and refused %d operations, want 3 and 2 (one segment, one get)", st.StoreSegs, st.MemRangeDrops)
	}
}

func second[T any](_ T, err error) error { return err }

// TestWaitGetSourceGoesSilent: the first of a get's three data segments
// lands, and with it the ack of the request; nothing from the source lands
// after it. With nothing unacknowledged there is no retransmission to give
// up on, so WaitGet must notice the silence itself: ErrPeerDead once the
// source has been quiet for its whole retry budget (about a quarter second),
// where the parent waited for ever.
func TestWaitGetSourceGoesSilent(t *testing.T) {
	tb, us := fixture(t, 2, uam.Config{})
	cells, open := 0, true
	tb.Topo.Downlink(0).SetInjector(faults.DropIf(func(c atm.Cell) bool {
		if !open {
			return true
		}
		if cells++; c.EOP {
			open = cells == 1 // single-cell control messages pass
			cells = 0
		}
		return false
	}))
	var getErr, waitErr error
	var waited time.Duration
	cliDone := false
	tb.Hosts[1].Spawn("srv", func(p *sim.Proc) {
		for !cliDone && p.Now() < time.Second {
			us[1].PollWait(p, time.Millisecond)
		}
	})
	tb.Hosts[0].Spawn("cli", func(p *sim.Proc) {
		defer func() { cliDone = true }()
		var tag uint32
		if tag, getErr = us[0].Get(p, 1, 0, 0, 12000); getErr == nil {
			waitErr = us[0].WaitGet(p, tag)
			waited = p.Now()
		}
	})
	tb.Eng.RunUntil(2 * time.Second)
	if !cliDone {
		t.Fatal("WaitGet still blocked after 2 s of virtual time")
	}
	if getErr != nil || !errors.Is(waitErr, uam.ErrPeerDead) || waited > 500*time.Millisecond {
		t.Errorf("Get %v, WaitGet %v after %v; want nil, then ErrPeerDead within 500 ms", getErr, waitErr, waited)
	}
	if st := us[0].Stats(); st.GetSegs != 1 {
		t.Errorf("%d get segments landed, want 1", st.GetSegs)
	}
}
