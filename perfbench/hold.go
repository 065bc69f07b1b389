package main

import (
	"runtime"
	"time"

	"pdq/internal/sim"
)

// holdEvents is how many events one hold-model sample fires.
const holdEvents = 1 << 20

// holdSamples is how many samples the hold model takes; it reports the
// median time.
const holdSamples = 5

// holdResult is the event engine's cost at one queue depth.
type holdResult struct {
	depth          int
	nsPerEvent     float64
	allocsPerEvent float64
}

// holdModel drives the event engine through sim.New, At and Step at a
// fixed queue depth: every fired event schedules one successor a
// pseudo-random 1–1024 ns later, so the queue holds depth events
// throughout. depth is the workload's measured queue high-water mark
// (at least 1). It reports the median ns per event and the allocations
// per event over all samples (whole allocations, as
// testing.AllocsPerRun counts them), after a warm-up that grows the
// engine's pools to the depth.
func holdModel(depth int, seed int64) holdResult {
	depth = max(depth, 1)
	s := sim.New()
	x := uint64(seed)*0x9E3779B97F4A7C15 | 1
	next := func() sim.Time {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return sim.Time(1 + x%1024)
	}
	var fire func()
	fire = func() { s.At(s.Now()+next(), fire) }
	for i := 0; i < depth; i++ {
		s.At(next(), fire)
	}
	for i := 0; i < 2*depth+holdEvents/16; i++ {
		s.Step()
	}

	// As testing.AllocsPerRun does: one P, so no other goroutine
	// allocates during the count, and whole allocations per event.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	times := make([]float64, holdSamples)
	runtime.ReadMemStats(&before)
	for k := range times {
		t0 := time.Now()
		for i := 0; i < holdEvents; i++ {
			s.Step()
		}
		times[k] = float64(time.Since(t0).Nanoseconds()) / holdEvents
	}
	runtime.ReadMemStats(&after)
	return holdResult{
		depth:          depth,
		nsPerEvent:     median(times),
		allocsPerEvent: float64((after.Mallocs - before.Mallocs) / (holdSamples * holdEvents)),
	}
}
