// Package sim implements a deterministic discrete-event simulation engine.
//
// The engine is the substrate for the packet-level network simulator used to
// reproduce the PDQ paper (Hong et al., SIGCOMM 2012). Events are ordered by
// the key (at, ta, tie, seq): firing time, scheduling instant, structural
// tie-break key and a sequence number assigned at schedule time. The key is
// unique, so simulations are fully deterministic: the same seed and the same
// schedule produce the same execution, event for event (see DESIGN.md §1).
//
// Internally the queue is a 4-ary min-heap of inline keys over a slot pool:
// event records live in a flat slice and are recycled through a free list
// on fire or cancel, so a steady-state simulation schedules events without
// allocating (DESIGN.md §2). EventRef is a (slot, generation) handle:
// recycling a slot bumps its generation, so a stale handle held after its
// event fired can never cancel the slot's next occupant. A Stream — a FIFO
// of events with increasing keys, such as one link's deliveries — holds a
// single heap entry keyed by its head, re-keyed in place as it fires.
//
// Time is an integer number of nanoseconds since the start of the
// simulation. At 1 Gbps one bit lasts one nanosecond, so nanosecond
// resolution is exact for the link rates the paper uses.
package sim

import (
	"fmt"
	"math"
	"sync/atomic" //pdqlint:shardsafe-ok the watchdog interrupt flag predates sharding; Interrupt is its only cross-goroutine writer

	"pdq/internal/obsv"
)

// Time is a simulation timestamp in nanoseconds since simulation start.
type Time int64

// Duration is a span of simulation time in nanoseconds.
type Duration = Time

// Handy duration units.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// MaxTime is the largest representable simulation time.
const MaxTime Time = math.MaxInt64

// Seconds reports t as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Millis reports t as a floating-point number of milliseconds.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

// Micros reports t as a floating-point number of microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// String formats the time with an adaptive unit.
func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.6gs", t.Seconds())
	case t >= Millisecond:
		return fmt.Sprintf("%.6gms", t.Millis())
	case t >= Microsecond:
		return fmt.Sprintf("%.6gus", t.Micros())
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// FromSeconds converts a floating-point number of seconds to a Time.
func FromSeconds(s float64) Time { return Time(math.Round(s * float64(Second))) }

// Runner is an event callback bound to a pre-existing object. Scheduling a
// Runner with AtRunner stores the interface value directly in the pooled
// event record, so hot paths that fire one event per object stay
// allocation-free: boxing a pointer into an interface does not allocate.
type Runner interface {
	// RunEvent is invoked when the event fires.
	RunEvent()
}

// Stream is a FIFO event source whose events' (at, ta, tie) keys strictly
// increase along the FIFO — a netsim link's pending deliveries. However
// many events a stream holds, it occupies one engine entry, keyed by its
// head event: the heap orders streams by their heads, and because each
// stream is internally sorted, the pop sequence is exactly that of a heap
// holding every event separately (DESIGN.md §3).
type Stream interface {
	// PopHead detaches the stream's head event and returns its runner,
	// together with the key of the new head; more is false when the
	// stream is now empty.
	PopHead() (head Runner, at, ta Time, tie uint64, more bool)
}

// event is a pooled scheduled-callback record. Records are recycled through
// Sim.free; gen distinguishes successive occupants of the same slot.
// Exactly one of fn, runner and stream is set. The event's order key lives
// inline in its heap entry (see entry), not here.
type event struct {
	fn     func()
	runner Runner
	stream Stream
	idx    int32  // position in Sim.order, -1 while free
	gen    uint32 // bumped on every release; see EventRef
}

// entry is one position of the heap: an event's full order key, kept
// inline so that comparisons never leave Sim.order, and its pool slot.
//
// at is the firing time and ta the scheduling instant: the simulation
// time at which the event was scheduled. tie is the structural tie-break
// key: 0 for locally scheduled events (timers), and a nonzero channel key
// — (link+1)<<32 | per-link counter for netsim deliveries — for channel
// events. seq is assigned from a counter at schedule time (and afresh when
// a stream entry is re-keyed to its next head). The full event order is
// (at, ta, tie, seq).
//
// ta and tie exist for the sharded engine (shard.go, DESIGN.md §14): the
// order of two events must not depend on how the simulation is
// partitioned, so same-at events order first by their producing instants
// (ta — virtual time, partition-independent), and same-(at, ta)
// coincidences order by the structural key (tie — the producing channel's
// identity and its private counter, also partition-independent). Locally
// scheduled events carry tie 0, so at a full (at, ta) coincidence local
// timers fire before channel deliveries. Channel keys are unique, so seq
// is only reached by two timers of one engine, whose relative seq order a
// shard reproduces at any partitioning.
type entry struct {
	at   Time
	ta   Time
	tie  uint64
	seq  uint64
	slot int32
}

// before reports whether e orders strictly before o. Sequence numbers are
// unique, so this is a strict total order and the pop sequence is
// independent of the heap's internal layout.
func (e *entry) before(o *entry) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	if e.ta != o.ta {
		return e.ta < o.ta
	}
	if e.tie != o.tie {
		return e.tie < o.tie
	}
	return e.seq < o.seq
}

// set copies e into the entry field by field. The sift functions take
// their entry by value, in registers, and spill it to the stack in 8-byte
// words; a whole-struct copy reloads those words as 16-byte vectors, which
// defeats store-to-load forwarding and stalls every schedule and fire.
func (e *entry) set(o *entry) {
	e.at, e.ta, e.tie, e.seq, e.slot = o.at, o.ta, o.tie, o.seq, o.slot
}

// EventRef identifies a scheduled event so it can be canceled. The zero
// EventRef is invalid. A ref is a (slot, generation) handle into the pool
// of the Sim that issued it: once the event fires or is canceled the slot's
// generation advances, so retained refs become harmless no-ops rather than
// resurrecting whatever event reuses the slot. Refs are only meaningful on
// the Sim that returned them.
type EventRef struct {
	slot int32 // pool index + 1, so the zero ref stays invalid
	gen  uint32
}

// Valid reports whether r refers to a scheduled (possibly already fired)
// event.
func (r EventRef) Valid() bool { return r.slot != 0 }

// Sim is a discrete-event simulator. The zero value is ready to use.
// Sim is not safe for concurrent use; the whole simulation runs in one
// goroutine by design (see DESIGN.md §5).
type Sim struct {
	now       Time
	seq       uint64
	firing    bool    // an event's callback is executing
	firingTa  Time    // ta of the executing event, valid while firing
	firingTie uint64  // tie of the executing event, valid while firing
	pool      []event // slot-indexed event records
	free      []int32 // recycled slots
	order     []entry // 4-ary min-heap keyed by (at, ta, tie, seq)
	// streamed counts stream events waiting behind their stream's head:
	// scheduled, but not yet in order.
	streamed int
	nRun     uint64
	halted   bool

	// maxEvents, when nonzero, bounds the total number of events this Sim
	// may execute; exceeding it panics with EventLimitError. It is the
	// deterministic half of the runaway-cell watchdog (DESIGN.md §11).
	maxEvents uint64
	// interrupted is the wall-clock watchdog flag, set from any goroutine
	// via Interrupt and polled by RunUntil every interruptStride events.
	interrupted atomic.Bool

	// stats, when non-nil, receives event-loop counters (DESIGN.md §13).
	// It is plain and owned by this Sim's goroutine: the shard driver
	// merges it into the shared aggregate only at barriers, so enabling
	// it adds one predictable branch per hot operation and no
	// synchronization. Nil (the default) keeps the paths untouched.
	stats *obsv.EngineStats
}

// interruptStride is how often (in events) RunUntil polls the interrupt
// flag: a power of two so the check compiles to a mask, rare enough that
// the atomic load is invisible in the event-loop profile.
const interruptStride = 1024

// EventLimitError is the panic value RunUntil raises when the event budget
// set by SetMaxEvents is exhausted. The sweep executor converts it into a
// NaN cell plus a diagnostic instead of crashing the process.
type EventLimitError struct {
	Events uint64 // events executed when the budget tripped
	At     Time   // simulation time at the trip point
}

func (e EventLimitError) Error() string {
	return fmt.Sprintf("sim: event budget exhausted after %d events at t=%v", e.Events, e.At)
}

// InterruptError is the panic value RunUntil raises after Interrupt was
// called — typically by a wall-clock watchdog armed outside the engine.
type InterruptError struct {
	Events uint64 // events executed when the interrupt was observed
	At     Time   // simulation time at the interrupt point
}

func (e InterruptError) Error() string {
	return fmt.Sprintf("sim: run interrupted after %d events at t=%v", e.Events, e.At)
}

// SetMaxEvents bounds the total number of events the Sim may execute; once
// Processed reaches n, RunUntil panics with EventLimitError. Zero (the
// default) means unlimited. The bound is on the Sim's lifetime event count,
// not per RunUntil call, so a budget set before the run covers the whole
// cell regardless of how the horizon is chopped up.
func (s *Sim) SetMaxEvents(n uint64) { s.maxEvents = n }

// Interrupt requests that the running simulation stop with an
// InterruptError panic. Unlike every other Sim method it is safe to call
// from another goroutine: it only sets an atomic flag, which RunUntil polls
// between events. The panic surfaces on the simulation goroutine within
// interruptStride events; an idle Sim panics on its next RunUntil.
func (s *Sim) Interrupt() { s.interrupted.Store(true) }

// New returns a new simulator with the clock at zero.
func New() *Sim { return &Sim{} }

// SetStats attaches an event-loop instrument block; nil detaches it.
// The block must only be read while the Sim is quiescent (between
// RunUntil calls, or at a shard barrier) — it is bumped with plain
// writes from the simulation goroutine.
func (s *Sim) SetStats(st *obsv.EngineStats) { s.stats = st }

// Stats returns the attached instrument block, or nil.
func (s *Sim) Stats() *obsv.EngineStats { return s.stats }

// Now returns the current simulation time.
func (s *Sim) Now() Time { return s.now }

// Processed returns the number of events executed so far.
func (s *Sim) Processed() uint64 { return s.nRun }

// Pending returns the number of events currently scheduled, counting
// every event a stream holds.
func (s *Sim) Pending() int { return len(s.order) + s.streamed }

// EventTa is the scheduling instant (ta) of the event currently executing,
// or Now when no event is executing. Two same-instant ops on one engine
// execute in the order of their parent events' ta — EventTa exposes that
// parent instant so the sharded engine can reproduce the tie order across
// shard boundaries (see Handoff.Pa in shard.go).
func (s *Sim) EventTa() Time {
	if s.firing {
		return s.firingTa
	}
	return s.now
}

// EventTie is the structural tie-break key of the event currently
// executing (0 for local timers, the producing channel key for
// deliveries), or the maximal key when no event is executing — an idle
// observer orders after every same-instant transition. Together with Now
// and EventTa it totally orders any observation against the
// (at, ta, tie, seq) event order; netsim's lazy link accounting settles
// exact-instant ties with it (DESIGN.md §3, §14).
func (s *Sim) EventTie() uint64 {
	if s.firing {
		return s.firingTie
	}
	return ^uint64(0)
}

// siftUp places e, which belongs at heap position i, moving it toward
// the root. e is passed in rather than read back from order, so a caller
// that has just built it never stores and reloads it.
//
//pdq:hotpath
func (s *Sim) siftUp(i int, e entry) {
	o := s.order
	for i > 0 {
		p := (i - 1) / 4
		if !e.before(&o[p]) {
			break
		}
		o[i] = o[p]
		s.pool[o[i].slot].idx = int32(i)
		i = p
	}
	o[i].set(&e)
	s.pool[e.slot].idx = int32(i)
}

// siftDown places e, which belongs at heap position i, moving it toward
// the leaves, and reports whether it moved.
//
//pdq:hotpath
func (s *Sim) siftDown(i int, e entry) bool {
	start := i
	o := s.order
	n := len(o)
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		best := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if o[c].before(&o[best]) {
				best = c
			}
		}
		if !o[best].before(&e) {
			break
		}
		o[i] = o[best]
		s.pool[o[i].slot].idx = int32(i)
		i = best
	}
	o[i].set(&e)
	s.pool[e.slot].idx = int32(i)
	return i > start
}

// heapRemove deletes heap position i, restoring the heap property.
//
//pdq:hotpath
func (s *Sim) heapRemove(i int) {
	n := len(s.order) - 1
	if i == n {
		s.order = s.order[:n]
		return
	}
	var last entry
	last.set(&s.order[n])
	s.order = s.order[:n]
	if !s.siftDown(i, last) {
		s.siftUp(i, last)
	}
}

// release recycles a slot: the callback is dropped (so it can be collected)
// and the generation advances, invalidating outstanding refs.
//
//pdq:hotpath
func (s *Sim) release(slot int32) {
	ev := &s.pool[slot]
	ev.fn = nil
	ev.runner = nil
	ev.stream = nil
	ev.idx = -1
	ev.gen++
	s.free = append(s.free, slot)
}

// schedule grabs a pooled slot for an event at (t, now, tie 0, next seq)
// and pushes it onto the heap, returning the slot.
//
//pdq:hotpath
func (s *Sim) schedule(t Time) int32 { return s.scheduleStamped(t, s.now, 0) }

// scheduleStamped is schedule with explicit scheduling-instant and
// structural-key stamps: netsim link streams stamp their canonical channel
// key, and barrier injection (shard.go) backdates an injected handoff to
// the enqueue instant that produced it on its source shard.
//
//pdq:hotpath
func (s *Sim) scheduleStamped(t, ta Time, tie uint64) int32 {
	if t < s.now {
		s.panicPast(t)
	}
	var slot int32
	if n := len(s.free); n > 0 {
		slot = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		s.pool = append(s.pool, event{})
		slot = int32(len(s.pool) - 1)
	}
	n := len(s.order)
	if n == cap(s.order) {
		s.order = append(s.order, entry{})
	} else {
		s.order = s.order[:n+1]
	}
	s.siftUp(n, entry{at: t, ta: ta, tie: tie, seq: s.seq, slot: slot})
	s.seq++
	if s.stats != nil {
		s.stats.Scheduled.Inc()
		s.stats.QueueHWM.Observe(int64(len(s.order)))
	}
	return slot
}

// atRunnerStamped is AtRunner with explicit scheduling-instant and
// structural-key stamps, for barrier injection of handoffs.
func (s *Sim) atRunnerStamped(t, ta Time, tie uint64, r Runner) {
	slot := s.scheduleStamped(t, ta, tie)
	s.pool[slot].runner = r
}

// StreamAt schedules one more event on st, to fire at t with the stamps
// (Now, tie). The event must order after every event st already holds;
// the stream's owner guarantees that (netsim checks it per link). first
// reports whether st was empty before this event: only then does the
// stream take an engine entry, keyed by this event. Otherwise the event
// waits in st behind its predecessors and reaches the heap when the one
// before it fires. Either way it counts as one scheduled event.
//
//pdq:hotpath
func (s *Sim) StreamAt(t Time, tie uint64, st Stream, first bool) {
	if !first {
		if t < s.now {
			s.panicPast(t)
		}
		s.streamed++
		if s.stats != nil {
			s.stats.Scheduled.Inc()
		}
		return
	}
	slot := s.scheduleStamped(t, s.now, tie)
	s.pool[slot].stream = st
}

// panicPast is schedule's cold failure path, kept out of the annotated
// hot function so it stays free of fmt.
func (s *Sim) panicPast(t Time) {
	panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, s.now))
}

// At schedules fn to run at absolute time t. Scheduling in the past (t <
// Now) panics: it is always a logic error in a discrete-event simulation.
//
//pdq:hotpath
func (s *Sim) At(t Time, fn func()) EventRef {
	if fn == nil {
		panic("sim: scheduling nil function")
	}
	slot := s.schedule(t)
	ev := &s.pool[slot]
	ev.fn = fn
	return EventRef{slot: slot + 1, gen: ev.gen}
}

// AtRunner schedules r.RunEvent to run at absolute time t. Unlike At with a
// method value, storing the Runner interface does not allocate, so
// per-object hot paths stay allocation-free.
//
//pdq:hotpath
func (s *Sim) AtRunner(t Time, r Runner) EventRef {
	if r == nil {
		panic("sim: scheduling nil runner")
	}
	slot := s.schedule(t)
	ev := &s.pool[slot]
	ev.runner = r
	return EventRef{slot: slot + 1, gen: ev.gen}
}

// After schedules fn to run d nanoseconds from now. Negative d panics.
func (s *Sim) After(d Duration, fn func()) EventRef { return s.At(s.now+d, fn) }

// Cancel removes a scheduled event. Canceling an already-fired or
// already-canceled event is a no-op. It reports whether the event was
// actually removed. Stream events carry no EventRef and cannot be
// canceled.
//
//pdq:hotpath
func (s *Sim) Cancel(r EventRef) bool {
	slot := r.slot - 1
	if slot < 0 || int(slot) >= len(s.pool) {
		return false
	}
	ev := &s.pool[slot]
	if ev.gen != r.gen || ev.idx < 0 {
		return false
	}
	s.heapRemove(int(ev.idx))
	s.release(slot)
	if s.stats != nil {
		s.stats.Cancelled.Inc()
	}
	return true
}

// Halt stops the currently executing Run after the current event returns.
func (s *Sim) Halt() { s.halted = true }

// Run executes events in order until the queue is empty or Halt is called.
func (s *Sim) Run() { s.RunUntil(MaxTime) }

// RunUntil executes events in order while their time is <= end (an event
// scheduled exactly at end still runs), stopping early if the queue
// empties or Halt is called.
//
// End-clock semantics, pinned by TestRunUntilEndClock:
//   - If events remain beyond end, the clock advances to exactly end, so
//     a subsequent RunUntil or After continues from the horizon.
//   - If the queue empties at or before end (or Halt stops the run), the
//     clock stays at the last executed event — it is NOT advanced to
//     end. Callers that need the wall end can read it from their own
//     bookkeeping; advancing to an arbitrary horizon would make MaxTime
//     overflow-prone (Run is RunUntil(MaxTime)).
func (s *Sim) RunUntil(end Time) {
	s.halted = false
	for len(s.order) > 0 && !s.halted {
		if s.maxEvents != 0 && s.nRun >= s.maxEvents {
			panic(EventLimitError{Events: s.nRun, At: s.now})
		}
		if s.nRun&(interruptStride-1) == 0 && s.interrupted.Load() {
			panic(InterruptError{Events: s.nRun, At: s.now})
		}
		if s.order[0].at > end {
			s.now = end
			return
		}
		s.fire()
	}
}

// fire executes the event at the root of the heap. A plain event's slot
// is recycled before the callback runs, so the callback can immediately
// reschedule into it. A stream's root entry is re-keyed in place to the
// stream's next head and sifted down once — no pop, no push, no slot
// churn — or released when the stream ran dry. Either way the event's
// own (ta, tie) stamps are published through EventTa/EventTie for the
// duration of the callback.
//
//pdq:hotpath
func (s *Sim) fire() {
	// Field-wise reads, not a struct copy: see entry.set.
	root := &s.order[0]
	at, ta, tie, slot := root.at, root.ta, root.tie, root.slot
	ev := &s.pool[slot]
	fn, runner := ev.fn, ev.runner
	if st := ev.stream; st != nil {
		var next entry
		var more bool
		runner, next.at, next.ta, next.tie, more = st.PopHead()
		if more {
			next.seq, next.slot = s.seq, slot
			s.seq++
			s.streamed--
			s.siftDown(0, next)
		} else {
			s.heapRemove(0)
			s.release(slot)
		}
	} else {
		s.heapRemove(0)
		s.release(slot)
	}
	s.now = at
	s.nRun++
	if s.stats != nil {
		s.stats.Fired.Inc()
	}
	s.firing = true
	s.firingTa = ta
	s.firingTie = tie
	if fn != nil {
		fn()
	} else {
		runner.RunEvent()
	}
	s.firing = false
}

// Step executes exactly one event if any is pending and reports whether an
// event was executed.
func (s *Sim) Step() bool {
	if len(s.order) == 0 {
		return false
	}
	s.fire()
	return true
}
