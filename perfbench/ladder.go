package main

import (
	"fmt"
	"math"
	"time"
)

// stepVerdict is one ladder rung's outcome.
type stepVerdict struct {
	Rung    int
	Rate    float64
	Tail    dist // search latency, ms
	Failed  int
	Grows   bool // the generator backlog grew
	Aborted bool // the generator fell more than maxLag behind
}

func (v stepVerdict) ok(limit time.Duration) bool {
	return v.Failed == 0 && !v.Grows && !v.Aborted && v.Tail.N > 0 && v.Tail.Tail <= ms(limit)
}

func (v stepVerdict) String() string {
	return fmt.Sprintf("rung %2d %7.1f/s  p%g %7.2f ms (n=%d)  failed %d  backlog-grows %v  aborted %v",
		v.Rung, v.Rate, v.Tail.TailP, v.Tail.Tail, v.Tail.N, v.Failed, v.Grows, v.Aborted)
}

// rungRate is the offered search rate of rung i.
func rungRate(base float64, i int) float64 { return base * math.Pow(LadderRatio, float64(i)) }

// rungBelow is the highest rung whose rate is at most rate (0 if none).
func rungBelow(base, rate float64) int {
	if rate <= base {
		return 0
	}
	i := int(math.Floor(math.Log(rate/base) / math.Log(LadderRatio)))
	if i >= ladderRungs {
		i = ladderRungs - 1
	}
	return i
}

// bracketStep is how many rungs the climb jumps while bracketing the
// capacity before bisecting back to single-rung resolution.
const bracketStep = 4

// climb finds the highest passing rung: starting at start it jumps
// bracketStep rungs up while rungs pass (down while they fail) until a pass
// and a fail bracket the capacity, then bisects the bracket. probe runs one
// rung; once expired reports true the search stops with what it has.
// Returns the highest passing rung (-1 if none passed) and every verdict in
// order.
func climb(start int, probe func(rung int) stepVerdict, limit time.Duration, expired func() bool) (int, []stepVerdict) {
	var log []stepVerdict
	try := func(i int) bool {
		if expired() {
			return false
		}
		v := probe(i)
		log = append(log, v)
		return v.ok(limit)
	}
	start = max(0, min(start, ladderRungs-1))
	lo, hi := -1, ladderRungs // highest pass, lowest fail
	if try(start) {
		lo = start
		for hi == ladderRungs && lo < ladderRungs-1 && !expired() {
			if i := min(lo+bracketStep, ladderRungs-1); try(i) {
				lo = i
			} else {
				hi = i
			}
		}
	} else {
		hi = start
		for hi > 0 && lo < 0 && !expired() {
			if i := max(hi-bracketStep, 0); try(i) {
				lo = i
			} else {
				hi = i
			}
		}
	}
	for lo >= 0 && hi-lo > 1 && !expired() {
		if mid := (lo + hi) / 2; try(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, log
}
