package main

import (
	"math"
	"runtime"
	"sort"
	"time"
)

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// quantile returns the q-quantile of xs by linear interpolation
// between order statistics (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// geomean is the geometric mean of positive values.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += math.Log(x)
	}
	return math.Exp(t / float64(len(xs)))
}

// tail returns the highest of p99, p95, p90 and p75 that has at least
// ten samples beyond it, and that percentile's number (0, 0 when even
// p75 has fewer).
func tail(xs []float64) (value, pct float64) {
	for _, p := range []float64{99, 95, 90, 75} {
		if float64(len(xs))*(100-p)/100 >= 10 {
			return quantile(xs, p/100), p
		}
	}
	return 0, 0
}

// memDelta measures heap allocation between two points. Mallocs and
// TotalAlloc are cumulative and unaffected by collection.
type memDelta struct{ ms0 runtime.MemStats }

func startMem() *memDelta {
	m := &memDelta{}
	runtime.ReadMemStats(&m.ms0)
	return m
}

func (m *memDelta) stop() (mallocs, bytes uint64, gcCycles uint32, gcPause time.Duration) {
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	return ms1.Mallocs - m.ms0.Mallocs, ms1.TotalAlloc - m.ms0.TotalAlloc,
		ms1.NumGC - m.ms0.NumGC, time.Duration(ms1.PauseTotalNs - m.ms0.PauseTotalNs)
}

// liveHeapMB collects garbage and returns what stays allocated.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}
