package sim

import (
	"fmt"
	"time"
)

// Proc is a simulated process: application code that consumes virtual time
// via Sleep and blocks on Conds and FIFOs. A Proc's function runs as an
// iter.Pull coroutine that only the engine resumes, so at most one process
// executes at a time and simulated code needs no locking.
type Proc struct {
	e    *Engine
	name string
	// next resumes the coroutine until its next park (or its end); yield,
	// called from inside it, hands control back to whoever called next and
	// reports false once stop has been called. All three are set by the
	// start event Spawn schedules.
	next  func() (struct{}, bool)
	yield func(struct{}) bool
	stop  func()
	done  bool
	// w is the process's reusable condition-wait record. A blocked process
	// waits on exactly one condition, so one embedded record (instead of an
	// allocation per Wait) suffices; WaitTimeout cancels its timer on a
	// signaled wake so no stale reference to w survives the call.
	w waiter
}

// procKilled is the panic payload used to unwind a process during Shutdown.
type procKilled struct{}

// top is the coroutine body wrapping the user function. A panic in fn is
// re-raised with the process name; iter.Pull carries it out of next, so it
// surfaces on the goroutine that called Run.
func (p *Proc) top(fn func(*Proc)) {
	defer func() {
		p.done = true
		if r := recover(); r != nil {
			if _, ok := r.(procKilled); !ok {
				panic(fmt.Sprintf("sim: process %q panicked: %v", p.name, r))
			}
		}
	}()
	fn(p)
}

// park suspends the process until the engine transfers control back. It is
// the single suspension point; every blocking primitive funnels through it.
func (p *Proc) park() {
	//unetlint:allow hotpathalloc coroutine switch back to the engine, not a call into unknown code: what runs before the resume are other events, each under its own root, and the switch itself allocates nothing (TestSteadyStateAllocs* hold 0 allocs/round)
	if !p.yield(struct{}{}) {
		panic(procKilled{})
	}
}

// Now returns the current virtual time.
func (p *Proc) Now() time.Duration { return p.e.now }

// Sleep advances the process's position in virtual time by d: it models the
// process spending d of CPU (or waiting) time. Other processes and events
// run in the interim. Non-positive d yields without advancing the clock.
// Sleep allocates nothing: the wake-up is a pooled resume event, and when
// that event would be the very next to fire the process does not leave its
// coroutine at all (Engine.nextToFire).
func (p *Proc) Sleep(d time.Duration) {
	if d < 0 {
		d = 0
	}
	e := p.e
	at := e.now + d
	if e.nextToFire(at) {
		e.wakeInPlace(at)
		return
	}
	e.AtArg(at, resume, p)
	p.park()
}

// Charge advances p by the cost d of work done on its behalf. A nil p is
// engine context, which has no process to bill, and is not charged.
func (p *Proc) Charge(d time.Duration) {
	if p != nil && d > 0 {
		p.Sleep(d)
	}
}

// waiter records one process blocked on a Cond.
type waiter struct {
	p        *Proc
	c        *Cond
	fired    bool
	timedOut bool
}

// Cond is a condition variable for simulated processes. Its zero value is
// ready to use. As with sync.Cond, waiters must re-check their predicate
// upon waking, because another process may run between the signal and the
// resume.
type Cond struct {
	waiters []*waiter
}

// popFront removes and returns the oldest waiter, keeping the slice's
// front capacity so steady-state wait/signal traffic allocates nothing.
func (c *Cond) popFront() *waiter {
	w := c.waiters[0]
	n := copy(c.waiters, c.waiters[1:])
	c.waiters[n] = nil
	c.waiters = c.waiters[:n]
	return w
}

// Signal wakes the longest-waiting process, if any.
func (c *Cond) Signal() {
	for len(c.waiters) > 0 {
		w := c.popFront()
		if w.fired {
			continue
		}
		w.fired = true
		w.p.e.AtArg(w.p.e.now, resume, w.p)
		return
	}
}

// Broadcast wakes every waiting process. The waiter slice is emptied in
// place, keeping its capacity: a wake-up only schedules (no process runs
// during the loop), so no new waiter can be appended mid-broadcast, and
// steady-state wait/broadcast traffic allocates nothing.
func (c *Cond) Broadcast() {
	ws := c.waiters
	for i, w := range ws {
		ws[i] = nil
		if w.fired {
			continue
		}
		w.fired = true
		w.p.e.AtArg(w.p.e.now, resume, w.p)
	}
	c.waiters = ws[:0]
}

// expire is a timed wait's timeout callback: unless a signal got there
// first, it takes the *waiter it was given off its condition and resumes
// its process.
func expire(a any) {
	w := a.(*waiter)
	if w.fired {
		return
	}
	w.fired = true
	w.timedOut = true
	w.c.remove(w)
	resume(w.p)
}

// remove deletes one waiter (used when its timeout fires).
func (c *Cond) remove(w *waiter) {
	for i, x := range c.waiters {
		if x == w {
			c.waiters = append(c.waiters[:i], c.waiters[i+1:]...)
			return
		}
	}
}

// Wait blocks the process until the condition is signaled.
func (p *Proc) Wait(c *Cond) {
	p.w = waiter{p: p, c: c}
	c.waiters = append(c.waiters, &p.w)
	p.park()
}

// WaitTimeout blocks until the condition is signaled or d elapses. It
// reports true if the wake was a signal and false on timeout. A timed-out
// waiter is removed from the condition immediately, and a signaled wake
// cancels the pending timeout, so polling loops accumulate neither stale
// waiters nor live timers.
func (p *Proc) WaitTimeout(c *Cond, d time.Duration) bool {
	p.w = waiter{p: p, c: c}
	c.waiters = append(c.waiters, &p.w)
	tm := p.e.AtArg(p.e.now+d, expire, &p.w) // a negative d is clamped to now
	p.park()
	if p.w.timedOut {
		return false
	}
	tm.Cancel()
	return true
}
