package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailBeyond is how many samples must lie beyond the reported tail
// percentile, so that the tail is never read off one or two outliers.
const tailBeyond = 10

// tail returns the highest percentile of xs that has at least tailBeyond
// samples above it, together with that percentile (0–100). When that
// percentile would not even reach the median (fewer than 2·tailBeyond+1
// samples) it falls back to the maximum, percentile 100, and tailNote says
// so.
func tail(xs []float64) (value, pct float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2*tailBeyond+1 {
		return s[n-1], 100
	}
	i := n - 1 - tailBeyond
	return s[i], 100 * float64(i+1) / float64(n)
}

// tailNote describes a latency sample: count, median and tail with the
// number of samples beyond it.
func tailNote(ms []float64) string {
	v, pct := tail(ms)
	beyond := tailBeyond
	if pct == 100 {
		beyond = 0
	}
	return fmt.Sprintf("%d samples, p50 %.3f ms, tail p%.1f %.3f ms (%d samples beyond)", len(ms), median(ms), pct, v, beyond)
}

// maxRSSMB returns the process's peak resident set size in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// gcSnapshot is the slice of runtime.MemStats the runtime metrics use.
type gcSnapshot struct {
	cycles  uint32
	pauseNs uint64
	alloc   uint64
}

func readGC() gcSnapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return gcSnapshot{cycles: ms.NumGC, pauseNs: ms.PauseTotalNs, alloc: ms.TotalAlloc}
}

// setupMedian builds a workload's inputs at least minSetups times and for
// at least setupSeconds, and returns the last build and the median build
// time in seconds: a cheap set-up is repeated until its median is steady.
// Each build's predecessor is freed first, outside the timing, so peak
// memory holds one copy of the inputs.
func setupMedian[T any](build func() T) (T, float64) {
	var out T
	var zero T
	var secs []float64
	start := time.Now()
	for len(secs) < minSetups || time.Since(start).Seconds() < setupSeconds {
		out = zero
		runtime.GC()
		t0 := time.Now()
		out = build()
		secs = append(secs, time.Since(t0).Seconds())
	}
	return out, median(secs)
}

// since returns the GC cycles, pause milliseconds and bytes allocated
// between g and now.
func (g gcSnapshot) since() (cycles, pauseMs, allocBytes float64) {
	now := readGC()
	return float64(now.cycles - g.cycles), float64(now.pauseNs-g.pauseNs) / 1e6, float64(now.alloc - g.alloc)
}
