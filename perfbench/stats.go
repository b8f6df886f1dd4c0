package main

import (
	"math"
	"sort"
	"time"
)

// tailPercentiles are the candidate tail slots, highest first. The reported
// tail is the highest of them with at least minBeyond samples above it, so a
// short run reports a lower percentile instead of a single outlier.
var tailPercentiles = []float64{99.9, 99.5, 99, 98, 95, 90, 75, 50}

// minBeyond is how many samples must lie above a reported tail percentile.
const minBeyond = 10

// nearestRank returns the p-th percentile of sorted by the nearest-rank
// rule: the value at 1-based rank ceil(p/100·n). sorted must be ascending
// and non-empty.
func nearestRank(sorted []float64, p float64) float64 {
	return sorted[rankOf(len(sorted), p)-1]
}

// rankOf is the 1-based nearest rank of percentile p over n samples.
func rankOf(n int, p float64) int {
	// The epsilon keeps float error in p·n/100 from bumping an exact rank.
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// tailSlot picks the highest tail percentile with at least minBeyond samples
// above its nearest rank. ok is false when even the median has fewer.
func tailSlot(n int) (p float64, ok bool) {
	for _, p := range tailPercentiles {
		if n-rankOf(n, p) >= minBeyond {
			return p, true
		}
	}
	return 50, false
}

// dist summarizes one latency (or size) sample set.
type dist struct {
	N     int
	P50   float64
	TailP float64 // the percentile the tail slot landed on
	Tail  float64
}

func summarize(xs []float64) dist {
	if len(xs) == 0 {
		return dist{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	p, _ := tailSlot(len(s))
	return dist{N: len(s), P50: nearestRank(s, 50), TailP: p, Tail: nearestRank(s, p)}
}

// percentile is the nearest-rank p-th percentile of xs; 0 for an empty set.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return nearestRank(s, p)
}

// median of xs (nearest rank); 0 for an empty set.
func median(xs []float64) float64 { return percentile(xs, 50) }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }
