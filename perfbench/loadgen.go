package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// sample is one operation of an open-loop schedule, timed relative to the
// schedule's start. Latency runs from the due time, not the send time, so a
// stall that delays later sends is charged to every request queued behind
// it (no coordinated omission).
type sample struct {
	Due   time.Duration // when the schedule wanted the op sent
	Start time.Duration // when a connection actually sent it
	End   time.Duration // when its response had been read
	// Backlog counts the ops that were due but not yet sent when this one
	// was sent, itself included.
	Backlog int
	OK      bool
	Sent    bool // false: the run stopped before this op was sent
}

// Latency is the user-visible time: from due to response.
func (s sample) Latency() time.Duration { return s.End - s.Due }

// Lag is how late the generator sent the op.
func (s sample) Lag() time.Duration { return s.Start - s.Due }

// openLoop drives n operations due at i·interval after the call, spread over
// conns connections (one goroutine each, so at most conns requests are in
// flight). send performs op i on connection w and reports success. Once any
// op is sent more than maxLag late the run stops sending (0 = never): the
// offered rate is clearly beyond what the system sustains, and the rest of
// the schedule would only queue. The returned slice is positional with the
// schedule; ops never sent have Sent false.
func openLoop(n int, interval time.Duration, conns int, maxLag time.Duration, send func(w, i int) bool) []sample {
	out := make([]sample, n)
	var next atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for !stop.Load() {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := time.Duration(i) * interval
				if d := due - time.Since(start); d > 0 {
					time.Sleep(d)
				}
				s := &out[i]
				s.Due = due
				s.Start = time.Since(start)
				dueCount := int(s.Start/interval) + 1
				if dueCount > n {
					dueCount = n
				}
				s.Backlog = dueCount - i
				if s.Backlog < 1 {
					s.Backlog = 1
				}
				if maxLag > 0 && s.Lag() > maxLag {
					stop.Store(true)
				}
				s.OK = send(w, i)
				s.End = time.Since(start)
				s.Sent = true
			}
		}(w)
	}
	wg.Wait()
	return out
}

// backlogGrows reports whether the generator fell progressively behind:
// the mean backlog over the last quarter of the sent ops exceeds the first
// quarter's by more than slack ops. A sustainable rate keeps the backlog
// flat (bursts come and go); an unsustainable one grows it linearly.
func backlogGrows(ss []sample, slack float64) bool {
	var bl []int
	for _, s := range ss {
		if s.Sent {
			bl = append(bl, s.Backlog)
		}
	}
	q := len(bl) / 4
	if q == 0 {
		return false
	}
	mean := func(xs []int) float64 {
		t := 0
		for _, x := range xs {
			t += x
		}
		return float64(t) / float64(len(xs))
	}
	return mean(bl[len(bl)-q:])-mean(bl[:q]) > slack
}
