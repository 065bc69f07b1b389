package sim

import (
	"container/heap"
	"math/rand"
	"testing"
)

// refEvent / refEngine form a trusted reference implementation of the event
// queue on top of container/heap, mirroring the pre-pooling engine: one
// heap-allocated record per event — every stream event included — ordered
// by (at, ta, tie, seq). The differential test below drives the pooled
// 4-ary heap, whose streams hold one entry each, and this reference
// through identical schedule/cancel/run interleavings and requires the
// exact same execution order, Pending counts and Cancel outcomes.
type refEvent struct {
	at, ta Time
	tie    uint64
	seq    uint64
	id     int
	idx    int
	dead   bool
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	a, b := h[i], h[j]
	if a.at != b.at {
		return a.at < b.at
	}
	if a.ta != b.ta {
		return a.ta < b.ta
	}
	if a.tie != b.tie {
		return a.tie < b.tie
	}
	return a.seq < b.seq
}
func (h refHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx = i
	h[j].idx = j
}
func (h *refHeap) Push(x any) {
	ev := x.(*refEvent)
	ev.idx = len(*h)
	*h = append(*h, ev)
}
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.idx = -1
	*h = old[:n-1]
	return ev
}

type refEngine struct {
	now    Time
	seq    uint64
	events refHeap
}

func (r *refEngine) at(t Time, tie uint64, id int) *refEvent {
	ev := &refEvent{at: t, ta: r.now, tie: tie, seq: r.seq, id: id}
	r.seq++
	heap.Push(&r.events, ev)
	return ev
}

func (r *refEngine) cancel(ev *refEvent) bool {
	if ev == nil || ev.dead || ev.idx < 0 {
		return false
	}
	ev.dead = true
	heap.Remove(&r.events, ev.idx)
	return true
}

// firing is one executed event as its callback observes it: the event's
// (at, ta, tie) key and its identity.
type firing struct {
	at, ta Time
	tie    uint64
	id     int
}

// runUntil pops events with at <= end in key order, calling react after
// each (the analogue of the callback) and stopping after stopAfter events
// when stopAfter > 0 (the Halt analogue). It returns the firings in order.
func (r *refEngine) runUntil(end Time, stopAfter int, react func(id int)) []firing {
	var fired []firing
	for len(r.events) > 0 {
		next := r.events[0]
		if next.at > end {
			r.now = end
			return fired
		}
		heap.Pop(&r.events)
		r.now = next.at
		fired = append(fired, firing{next.at, next.ta, next.tie, next.id})
		react(next.id)
		if stopAfter > 0 && len(fired) >= stopAfter {
			return fired
		}
	}
	return fired
}

// runFunc adapts a func to Runner.
type runFunc func()

func (f runFunc) RunEvent() { f() }

// testStream is a Stream over a slice FIFO: the test analogue of a netsim
// link's delivery queue.
type testStream struct {
	s     *Sim
	items []streamItem
	head  int
}

type streamItem struct {
	at, ta Time
	tie    uint64
	fn     func()
}

// push appends an event at (at, Now, tie) to the stream; the caller keeps
// keys increasing.
func (q *testStream) push(at Time, tie uint64, fn func()) {
	first := q.head == len(q.items)
	q.items = append(q.items, streamItem{at, q.s.Now(), tie, fn})
	q.s.StreamAt(at, tie, q, first)
}

func (q *testStream) PopHead() (Runner, Time, Time, uint64, bool) {
	it := q.items[q.head]
	q.head++
	if q.head < len(q.items) {
		n := &q.items[q.head]
		return runFunc(it.fn), n.at, n.ta, n.tie, true
	}
	q.items, q.head = q.items[:0], 0
	return runFunc(it.fn), 0, 0, 0, false
}

// streamKeys hands out monotone per-stream keys, one generator per engine
// so that each side advances its own copy in its own firing order.
type streamKeys struct {
	last []Time
	ctr  []uint32
}

func newStreamKeys(n int) *streamKeys {
	return &streamKeys{last: make([]Time, n), ctr: make([]uint32, n)}
}

// next returns the key of stream k's next event, wanted d after now: never
// earlier than the stream's previous event, with a fresh channel counter.
func (g *streamKeys) next(k int, now, d Time) (Time, uint64) {
	at := now + d
	if at < g.last[k] {
		at = g.last[k]
	}
	g.last[k] = at
	g.ctr[k]++
	return at, uint64(k+1)<<32 | uint64(g.ctr[k])
}

// TestDifferentialAgainstContainerHeap drives both engines through many
// random interleavings of tie-0 timers (At), monotone per-stream events
// (StreamAt), Cancel of live, fired and already-canceled timer refs,
// partial runs (Halt from inside a callback), and full drains. Some
// firings spawn a child event — a timer or a stream event, possibly on the
// firing stream itself — from inside the callback. The engines must agree
// on the (at, ta, tie) firing sequence, on Pending, and on every Cancel
// verdict. Firing and canceling recycle pool slots, so later Cancel
// attempts on spent handles also exercise the generation-staleness guard
// against slot reuse.
func TestDifferentialAgainstContainerHeap(t *testing.T) {
	const nStreams = 4
	const childBit = 1 << 30 // child ids: parent id | childBit; children spawn nothing
	for trial := 0; trial < 300; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		s := New()
		ref := &refEngine{}
		streams := make([]*testStream, nStreams)
		for k := range streams {
			streams[k] = &testStream{s: s}
		}
		simKeys, refKeys := newStreamKeys(nStreams), newStreamKeys(nStreams)

		type handle struct {
			ref *refEvent
			got EventRef
		}
		live := map[int]handle{} // timer id → handles, still scheduled
		var spent []handle       // fired or canceled: Cancel must refuse
		var liveIDs []int        // deterministic iteration order for live
		var fired []firing
		nextID := 0
		stopAfter := 0 // fire Halt after this many events when > 0

		// A root firing whose id is ≡ 1 (mod 3) spawns a stream event on
		// stream id%nStreams, one ≡ 2 spawns a timer; the delay is a
		// function of the id, so both engines spawn the same child at the
		// same point of their (identical) firing sequences.
		childOf := func(id int) (kind int, k int, d Time) {
			if id&childBit != 0 {
				return 0, 0, 0
			}
			return id % 3, id % nStreams, Time(id*7) % 25
		}
		var simFire func(id int) func()
		simFire = func(id int) func() {
			return func() {
				fired = append(fired, firing{s.Now(), s.EventTa(), s.EventTie(), id})
				switch kind, k, d := childOf(id); kind {
				case 1:
					at, tie := simKeys.next(k, s.Now(), d)
					streams[k].push(at, tie, simFire(id|childBit))
				case 2:
					s.At(s.Now()+d, simFire(id|childBit))
				}
				if stopAfter > 0 && len(fired) >= stopAfter {
					s.Halt()
				}
			}
		}
		refReact := func(id int) {
			switch kind, k, d := childOf(id); kind {
			case 1:
				at, tie := refKeys.next(k, ref.now, d)
				ref.at(at, tie, id|childBit)
			case 2:
				ref.at(ref.now+d, 0, id|childBit)
			}
		}

		scheduleTimer := func() {
			id := nextID
			nextID++
			at := s.Now() + Time(rng.Intn(50))
			rev := ref.at(at, 0, id)
			got := s.At(at, simFire(id))
			live[id] = handle{rev, got}
			liveIDs = append(liveIDs, id)
		}
		scheduleStream := func() {
			id := nextID
			nextID++
			k := rng.Intn(nStreams)
			d := Time(rng.Intn(50))
			at, tie := refKeys.next(k, s.Now(), d)
			ref.at(at, tie, id)
			at2, tie2 := simKeys.next(k, s.Now(), d)
			if at2 != at || tie2 != tie {
				t.Fatalf("trial %d: key generators diverged", trial)
			}
			streams[k].push(at, tie, simFire(id))
		}
		// retire moves fired timer ids out of live so their handles become stale.
		retire := func() {
			for _, f := range fired {
				if h, ok := live[f.id]; ok {
					delete(live, f.id)
					spent = append(spent, h)
				}
			}
			kept := liveIDs[:0]
			for _, id := range liveIDs {
				if _, ok := live[id]; ok {
					kept = append(kept, id)
				}
			}
			liveIDs = kept
		}
		compare := func(where string, want []firing) {
			t.Helper()
			if len(fired) != len(want) {
				t.Fatalf("trial %d %s: fired %v, ref fired %v", trial, where, fired, want)
			}
			for i := range fired {
				if fired[i] != want[i] {
					t.Fatalf("trial %d %s: execution order diverged at %d: %+v vs %+v", trial, where, i, fired[i], want[i])
				}
			}
		}

		for op := 0; op < 400; op++ {
			switch r := rng.Intn(12); {
			case r < 3 || len(liveIDs) == 0 && r < 8:
				scheduleTimer()
			case r < 6:
				scheduleStream()
			case r < 8: // cancel a random live timer
				id := liveIDs[rng.Intn(len(liveIDs))]
				h := live[id]
				want := ref.cancel(h.ref)
				if got := s.Cancel(h.got); got != want {
					t.Fatalf("trial %d op %d: Cancel(live) = %v, ref says %v", trial, op, got, want)
				}
				// Double-cancel through the same handle must refuse.
				if s.Cancel(h.got) {
					t.Fatalf("trial %d op %d: double Cancel succeeded", trial, op)
				}
				delete(live, id)
				spent = append(spent, h)
				kept := liveIDs[:0]
				for _, l := range liveIDs {
					if l != id {
						kept = append(kept, l)
					}
				}
				liveIDs = kept
			case r < 9 && len(spent) > 0: // cancel a spent (stale) handle
				h := spent[rng.Intn(len(spent))]
				if s.Cancel(h.got) {
					t.Fatalf("trial %d op %d: Cancel of spent handle succeeded (generation guard broken)", trial, op)
				}
				if ref.cancel(h.ref) {
					t.Fatal("reference engine canceled a spent event")
				}
			default: // run to a horizon, sometimes halting mid-run
				stopAfter = 0
				if rng.Intn(2) == 0 {
					stopAfter = 1 + rng.Intn(3)
				}
				fired = fired[:0]
				end := s.Now() + Time(rng.Intn(80))
				want := ref.runUntil(end, stopAfter, refReact)
				s.RunUntil(end)
				compare("run", want)
				if s.Now() != ref.now {
					t.Fatalf("trial %d op %d: Now() = %v, ref at %v", trial, op, s.Now(), ref.now)
				}
				retire()
				stopAfter = 0
			}
			if s.Pending() != len(ref.events) {
				t.Fatalf("trial %d op %d: Pending() = %d, ref has %d", trial, op, s.Pending(), len(ref.events))
			}
		}

		// Drain both completely and compare the tail.
		fired = fired[:0]
		want := ref.runUntil(MaxTime-1, 0, refReact)
		s.RunUntil(MaxTime - 1)
		compare("drain", want)
		if s.Pending() != 0 {
			t.Fatalf("trial %d: %d events left after drain", trial, s.Pending())
		}
		// All handles are now stale; none may cancel.
		for id, h := range live {
			if s.Cancel(h.got) {
				t.Fatalf("trial %d: Cancel of fired event %d succeeded after drain", trial, id)
			}
		}
	}
}

// TestEventRefGenerationReuse pins the slot-recycling guarantee directly: a
// ref whose event fired must not cancel the event that reuses its slot.
func TestEventRefGenerationReuse(t *testing.T) {
	s := New()
	ran := 0
	r1 := s.At(1, func() { ran++ })
	s.Run()
	if ran != 1 {
		t.Fatalf("first event ran %d times", ran)
	}
	// The freed slot is recycled by the next At.
	r2 := s.At(2, func() { ran += 10 })
	if s.Cancel(r1) {
		t.Fatal("stale ref canceled a recycled slot")
	}
	s.Run()
	if ran != 11 {
		t.Fatalf("recycled event did not run (ran=%d)", ran)
	}
	if s.Cancel(r2) {
		t.Fatal("Cancel succeeded after event fired")
	}
}

// TestScheduleSteadyStateAllocs verifies the zero-allocation contract: once
// the pool has warmed up, schedule/fire cycles must not allocate. The
// callback is a pre-bound closure, as the hot paths in netsim and the
// protocol senders use.
func TestScheduleSteadyStateAllocs(t *testing.T) {
	s := New()
	var fn func()
	n := 0
	fn = func() {
		if n++; n < 1000 {
			s.After(3, fn)
		}
	}
	s.After(1, fn)
	s.Run()
	n = 0
	allocs := testing.AllocsPerRun(100, func() {
		n = 0
		s.After(1, fn)
		s.Run()
	})
	if allocs > 0 {
		t.Errorf("steady-state schedule/fire allocates %.1f times per run, want 0", allocs)
	}
}
