package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported tail
// percentile.
const minBeyond = 10

// tailPercentile returns the highest percentile, at most want, that has
// at least minBeyond of n samples beyond it. ok is false when even the
// median has fewer than minBeyond samples beyond it.
func tailPercentile(n int, want float64) (p float64, ok bool) {
	if n <= 0 {
		return 0, false
	}
	p = 100 * (1 - float64(minBeyond)/float64(n))
	if p > want {
		p = want
	}
	return p, p >= 50
}

// percentile is the nearest-rank percentile of sorted values.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	// The epsilon keeps p = 100(1 - k/n) from rounding up a rank.
	rank := int(math.Ceil(p/100*float64(len(sorted)) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// Dist summarizes one latency sample set.
type Dist struct {
	N int
	// P50 is the median; Tail the value at TailPct, the highest
	// percentile (at most 99) with minBeyond samples beyond it.
	P50, Tail, TailPct float64
}

func sortedCopy(values []float64) []float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return s
}

// summarize computes a Dist; values are copied, not reordered.
func summarize(values []float64) Dist {
	s := sortedCopy(values)
	d := Dist{N: len(s), P50: percentile(s, 50)}
	p, ok := tailPercentile(len(s), 99)
	if !ok {
		p = 50
	}
	d.TailPct = p
	d.Tail = percentile(s, p)
	return d
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func median(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	if len(s) == 0 {
		return math.NaN()
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
