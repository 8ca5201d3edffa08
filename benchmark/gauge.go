package main

import "time"

// The sandbox's processor is shared: for seconds to tens of seconds at
// a time something else slows memory-bound code by a quarter or more,
// and no statistic over a run's samples removes a disturbance that
// covers half of them. The harness therefore times a small fixed
// computation of its own — dependent random reads over a table larger
// than the cache, which is what a disturbed neighbour makes slow —
// before and after every timed pass of a read workload, and keeps a
// pass only when both readings are within quietSlack of the run's
// quiet level. The medians reported are medians of the passes kept. Measured on
// fig3_warm, windows of 55 passes: unfiltered medians ranged over 19 %
// and 11 % in two six-minute series, filtered ones over 5 % and 2 %.
//
// The computation is the benchmark's, not the program's: no change
// under internal/ or xrel/ can move it.

const (
	gaugeWords = 1 << 23 // 64 MB of uint64
	gaugeReads = 100000
	quietSlack = 1.04
	minQuiet   = 3 // with fewer quiet passes than this, all are used
)

// gauge takes readings of how fast the machine is right now.
type gauge struct {
	table    []uint64
	sink     uint64
	readings []float64 // milliseconds
}

func newGauge() *gauge {
	g := &gauge{table: make([]uint64, gaugeWords)}
	x := uint64(88172645463325252)
	for i := range g.table {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		g.table[i] = x
	}
	return g
}

// mark takes a reading and returns its number. What ran before has
// left the cache and the TLB in its own state, so the reads are done
// twice and only the second set is timed.
func (g *gauge) mark() int {
	g.reads(gaugeReads / 2)
	t0 := time.Now()
	g.reads(gaugeReads)
	g.readings = append(g.readings, ms(time.Since(t0)))
	return len(g.readings) - 1
}

func (g *gauge) reads(n int) {
	idx := g.sink | 1
	var x uint64
	for i := 0; i < n; i++ {
		idx = g.table[idx&(gaugeWords-1)] + uint64(i)
		x += idx
	}
	g.sink = x
}

// quietLevel is the reading of an undisturbed machine: the run's
// fastest decile.
func (g *gauge) quietLevel() float64 { return quantile(g.readings, 0.10) }

// quiet reports whether the machine was undisturbed at both readings.
func (g *gauge) quiet(level float64, before, after int) bool {
	return g.readings[before] <= quietSlack*level && g.readings[after] <= quietSlack*level
}
