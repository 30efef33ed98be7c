package sim

import (
	"math"
	"math/bits"
	"time"
)

// Hierarchical timer wheel (Varghese & Lauck), the engine's far-horizon
// event store. The heap of instants stays the near-horizon sorter — it
// alone decides firing order — while the wheel holds everything scheduled beyond
// the current drain frontier in unsorted per-slot lists, making insertion
// and cancellation O(1) regardless of how many million events are pending.
//
// Layout: wheelLevels levels of wheelSlots slots each. A level-0 slot spans
// one tick of 2^granBits nanoseconds; each higher level spans wheelSlots
// times its child's range, so the top level covers every representable
// time.Duration and overflow cannot occur. Slots are indexed by the event's
// absolute tick (at >> granBits): level = position of the highest bit in
// which the tick differs from the frontier cur, slot = that tick field.
// This "differing bit" rule (rather than a delta magnitude) guarantees a
// slot's span never straddles the frontier, so a slot drains exactly once.
//
// Invariants the rest of the engine relies on:
//
//   - Every heap event has tick ≤ cur; every wheel event has tick > cur.
//     Corollary: two events with the same firing time are always in the
//     same structure, so the heap's (at, seq) order is the global order and
//     fire order is bit-identical to the heap-only scheduler's.
//   - drain moves events heap-ward only until the heap top is the exact
//     global minimum (not a lower bound) — shard horizon computation
//     publishes that top, and a mere lower bound could stall the window
//     protocol forever.
//   - Slot lists are doubly linked (event.next/event.prev), so Cancel on a
//     wheel-resident event unlinks and recycles it immediately: canceled
//     far timers never pile up, and the heap keeps only canceled entries
//     of the ticks up to cur, which it drops as their instants pop. A
//     list's first event keeps its last in prev, so drain starts from the
//     oldest without walking the list.
//
// The wheel performs no virtual-time accounting and must never read wall
// clocks: cascades are pure data-structure motion between schedule and
// fire, both of which happen at engine-controlled virtual instants.
const (
	// granBits is the level-0 slot width: 2^12 ns ≈ 4.1 µs per tick.
	// Near-term traffic (cell hops, sub-µs costs) lands in the current tick
	// and goes straight to the heap; protocol timers (2 ms retransmits and
	// up) go to the wheel.
	granBits = 12
	// slotBits is the per-level fanout: 64 slots, one occupancy word each.
	slotBits   = 6
	wheelSlots = 1 << slotBits
	// wheelLevels is chosen so granBits + wheelLevels*slotBits ≥ 63: the
	// top level's span covers all of time.Duration and no event can
	// overflow the wheel.
	wheelLevels = 9

	// noWheelEvent is nextLB's value while the wheel is empty.
	noWheelEvent = time.Duration(math.MaxInt64)
)

type wheel struct {
	// cur is the drain frontier in ticks. It trails the engine clock in
	// busy stretches and jumps ahead of it when drain fast-forwards to a
	// far-future slot; only the tick ≤ cur ⇒ heap invariant matters.
	cur uint64
	// count is the number of events resident in slots.
	count int
	// nextLB is a lower bound on the earliest wheel event's firing time,
	// used as the peek fast path. It may be stale-low after cancellations
	// (costing a bitmap scan, never correctness).
	nextLB time.Duration
	// occ[l] has bit s set iff slots[l*wheelSlots+s] is non-empty.
	occ   [wheelLevels]uint64
	slots [wheelLevels * wheelSlots]*event
}

func newWheel() *wheel { return &wheel{nextLB: noWheelEvent} }

// tick converts a firing time to its wheel tick.
func tick(at time.Duration) uint64 { return uint64(at) >> granBits }

// insert links ev into the slot for its firing time. Caller guarantees
// tick(ev.at) > w.cur.
//
//unetlint:hotpath timer arm; runs on every scheduled event
func (w *wheel) insert(ev *event) {
	t := tick(ev.at)
	x := t ^ w.cur
	lvl := uint((bits.Len64(x) - 1) / slotBits)
	s := (t >> (lvl * slotBits)) & (wheelSlots - 1)
	idx := int32(lvl)*wheelSlots + int32(s)
	head := w.slots[idx]
	ev.next = head
	if head != nil {
		ev.prev = head.prev
		head.prev = ev
	} else {
		ev.prev = ev
	}
	w.slots[idx] = ev
	ev.wslot = idx
	w.occ[lvl] |= 1 << s
	w.count++
	if ev.at < w.nextLB {
		w.nextLB = ev.at
	}
}

// unlink removes a wheel-resident event from its slot in O(1).
//
//unetlint:hotpath timer cancel; runs on every retired timer and every signaled timed wait
func (w *wheel) unlink(ev *event) {
	idx := ev.wslot
	head, next := w.slots[idx], ev.next
	switch {
	case ev != head:
		ev.prev.next = next
		if next == nil {
			head.prev = ev.prev
		} else {
			next.prev = ev.prev
		}
	case next != nil:
		next.prev = ev.prev
		w.slots[idx] = next
	default:
		w.slots[idx] = nil
		lvl := idx / wheelSlots
		w.occ[lvl] &^= 1 << uint(idx%wheelSlots)
	}
	ev.next, ev.prev, ev.wslot = nil, nil, -1
	w.count--
}

// nextSlot locates the earliest occupied slot. Levels are time-ordered
// (every level-l event precedes every level-(l+1) event: level l holds only
// ticks inside cur's level-(l+1) window, higher levels only ticks beyond
// it), and within a level every occupied slot index is strictly ahead of
// cur's position, so the first set bit of the first non-empty level wins.
// Caller guarantees count > 0.
func (w *wheel) nextSlot() (lvl uint, s uint64, startTick uint64) {
	for l := uint(0); l < wheelLevels; l++ {
		m := w.occ[l]
		if m == 0 {
			continue
		}
		s := uint64(bits.TrailingZeros64(m))
		shift := l * slotBits
		span := uint64(1)<<(shift+slotBits) - 1
		return l, s, w.cur&^span | s<<shift
	}
	panic("sim: wheel occupancy bitmap empty with count > 0")
}

// drain advances the frontier slot by slot — cascading multi-tick slots
// into finer levels, pushing due-tick events to the heap — until the heap
// top is the exact global minimum (or the wheel empties). Each event
// cascades at most once per level on its way down, so the amortized cost
// per event is O(wheelLevels) pointer moves ≈ O(1), independent of the
// pending-event population.
func (w *wheel) drain(e *Engine) {
	for w.count > 0 {
		lvl, s, startTick := w.nextSlot()
		lb := time.Duration(startTick << granBits)
		if head := e.events.min(); head != nil && head.at <= lb {
			// Heap top fires at or before anything the wheel still holds
			// (same-time events are never split across the two structures,
			// so ≤ cannot mask a lower-seq wheel event).
			w.nextLB = lb
			return
		}
		w.cur = startTick
		idx := int32(lvl)*wheelSlots + int32(s)
		head := w.slots[idx]
		w.slots[idx] = nil
		w.occ[lvl] &^= 1 << s
		// insert links at the head, so the slot lists newest first. Hand
		// it over from the tail, oldest first: the heap then appends each
		// event to its instant instead of walking the chain, and a cascade
		// relinks the finer slot newest first again.
		for ev, last := head.prev, false; !last; {
			prev := ev.prev
			last = ev == head
			ev.next, ev.prev, ev.wslot = nil, nil, -1
			w.count--
			if tick(ev.at) > w.cur {
				w.insert(ev)
			} else {
				e.events.push(ev)
			}
			ev = prev
		}
	}
	w.nextLB = noWheelEvent
}

// reset drops every wheel-resident event reference (Shutdown path).
func (w *wheel) reset() {
	*w = wheel{nextLB: noWheelEvent}
}
