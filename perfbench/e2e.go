package main

import (
	"fmt"
	"net/http"
	"time"
)

// Phase lengths, as shares of the measured seconds: the end-to-end run's
// fixed-rate repeats; the traced run's untraced and traced phases and its
// capacity ladder. Warm-up is outside them.
const (
	warmUp      = time.Second
	fixedReps   = 3
	fixedShare  = 0.3 // of the measured seconds, per fixed-rate repeat
	ladderShare = 0.4 // of the measured seconds, for the traced run's capacity ladder
	probeDur    = 1500 * time.Millisecond
	phaseLag    = 5 * time.Second // a fixed-rate phase this far behind is abandoned
)

// recallSample is how many distinct served queries recall is measured on.
const recallSample = 200

// minFixedSearches is how many searches the fixed-rate phase issues at
// least, so its tail slot is a true p99 (10 samples beyond).
const minFixedSearches = 1100

// fixedDur is the fixed-rate phase's length: its share of the measured
// seconds, stretched if needed to reach minFixedSearches.
func fixedDur(w workload, measure time.Duration) time.Duration {
	d := time.Duration(fixedShare * float64(measure))
	// The 10% margin covers mixed workloads, whose share of searches
	// varies with the seeded draw of operation kinds.
	if need := time.Duration(1.1 * minFixedSearches / w.SearchRate * float64(time.Second)); need > d {
		d = need
	}
	return d
}

// backlogSlack is how many ops the mean backlog may rise across a ladder
// step before the step counts as falling behind: 4, or 1% of a second's
// offered operations at higher rates.
func backlogSlack(rate float64) float64 { return max(4, rate/100) }

// startServing sets the system up setupReps times (keeping the last) and
// returns it with the setup times.
func startServing(w workload, in *inputs, work string, reps int) (*system, []float64, error) {
	var s *system
	var setups []float64
	for i := 0; i < reps; i++ {
		if s != nil {
			if err := s.close(); err != nil {
				return nil, nil, err
			}
		}
		var d time.Duration
		var err error
		s, d, err = setUp(w, in, work)
		if err != nil {
			return nil, nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, d.Seconds())
	}
	return s, setups, nil
}

func endToEndRun(rep *report, w workload, in *inputs, seed int64, measure time.Duration, work string) error {
	s, setups, err := startServing(w, in, work, setupReps)
	if err != nil {
		return err
	}
	defer s.close()
	fmt.Println("  system:", s.describe())
	rep.set("setup_s", median(setups), fmt.Sprintf("median of %d set-ups %v", len(setups), setups))
	rep.set("heap_mb", heapMB(), "HeapInuse after setup and a GC, before load")

	cl := newClient(s.url, maxConns())
	defer cl.close()
	r := newRunner(w, in, cl, maxConns(), seed)
	if w.Live {
		r.mon = startMonitor(s.ls, w.CompactThreshold)
		defer r.mon.close()
	}

	r.run(w.SearchRate, w.InsertRate, warmUp, phaseLag)
	// The fixed-rate phase runs fixedReps times; latency figures are the
	// median over the repeats, so one phase hit by a stall does not set them.
	var p50s, p99s []float64
	var reads float64
	searches := 0
	for i := 0; i < fixedReps; i++ {
		fixed := r.run(w.SearchRate, w.InsertRate, fixedDur(w, measure), phaseLag)
		lat := summarize(fixed.latencies(opSearch))
		fmt.Printf("fixed %d: %d searches at %.0f/s  p50 %.3f ms  p%g %.3f ms (%d beyond)\n",
			i+1, lat.N, w.SearchRate, lat.P50, lat.TailP, lat.Tail, lat.N-rankOf(lat.N, lat.TailP))
		p50s, p99s = append(p50s, lat.P50), append(p99s, lat.Tail)
		for j := range fixed.ops {
			if o, sm := &fixed.ops[j], fixed.samples[j]; sm.Sent && o.Kind == opSearch && !o.failed() {
				reads += float64(o.Resp.Stats.PageReads)
				searches++
			}
		}
		if w.Live {
			ins, del := summarize(fixed.latencies(opInsert)), summarize(fixed.latencies(opDelete))
			fmt.Printf("fixed %d writes: insert p50 %.3f ms p%g %.3f ms (n=%d)  delete p50 %.3f ms p%g %.3f ms (n=%d)\n",
				i+1, ins.P50, ins.TailP, ins.Tail, ins.N, del.P50, del.TailP, del.Tail, del.N)
		}
	}
	rep.set("search_p50_ms", median(p50s), fmt.Sprintf("median of %d fixed-rate phases at %.0f/s offered", fixedReps, w.SearchRate))
	// The tail is printed here; the traced run records it (see README.md).
	fmt.Printf("search_p99_ms %.4f ms (median of %d phases' p99, each >= %d searches)\n", median(p99s), fixedReps, minFixedSearches)
	rep.set("io_pages_per_query", reads/float64(searches), fmt.Sprintf("%.0f page reads / %d searches", reads, searches))

	return r.finishChecks(rep, s, seed)
}

// capacityLadder runs the capacity ladder for at most budget (plus the step
// in progress), starting two rungs below the capacity the service times of
// an earlier phase imply, and records search_max_qps. On read-write every
// step starts from a freshly compacted overlay, so a step holds no
// compaction: the ladder measures search capacity beside writes, and the
// fixed-rate phases carry the compaction stalls.
func (r *runner) capacityLadder(rep *report, s *system, est float64, budget time.Duration) error {
	w := r.w
	end := time.Now().Add(budget)
	var stepErr error
	best, steps := climb(rungBelow(w.LadderBase, est)-2, func(rung int) stepVerdict {
		if w.Live && stepErr == nil {
			stepErr = compactNow(s)
		}
		return r.verdict(rung, r.run(rungRate(w.LadderBase, rung), w.InsertRate, probeDur, 10*w.Limit))
	}, w.Limit, func() bool { return stepErr != nil || time.Now().After(end) })
	if stepErr != nil {
		return stepErr
	}
	for _, v := range steps {
		fmt.Println("ladder:", v)
	}
	note := fmt.Sprintf("rung %d of %.0f/s x %.2f^i; p99 <= %v, backlog flat, no failures", best, w.LadderBase, LadderRatio, w.Limit)
	if best < 0 {
		note = "below the ladder: rung 0 failed"
	}
	rep.set("search_max_qps", rungRate(w.LadderBase, best), note)
	return nil
}

// capacityEstimate is the search rate the connections could carry at the
// service times a phase observed.
func capacityEstimate(p *phaseResult, conns int) float64 {
	var service float64
	n := 0
	for i, sm := range p.samples {
		if sm.Sent && p.ops[i].Kind == opSearch {
			service += (sm.End - sm.Start).Seconds()
			n++
		}
	}
	return float64(conns) * float64(n) / service
}

// compactNow folds the live overlay and waits for the compaction to land.
func compactNow(s *system) error {
	if err := settle(s); err != nil {
		return err
	}
	if st := s.ls.Stats(); st.DeltaPoints > 0 && s.ls.Live.ForceCompact() {
		return settle(s)
	}
	return nil
}

// verdict judges one ladder step.
func (r *runner) verdict(rung int, p *phaseResult) stepVerdict {
	v := stepVerdict{
		Rung:    rung,
		Rate:    rungRate(r.w.LadderBase, rung),
		Tail:    summarize(p.latencies(opSearch)),
		Grows:   backlogGrows(p.samples, backlogSlack(rungRate(r.w.LadderBase, rung))),
		Aborted: p.aborted,
	}
	for i := range p.ops {
		if p.samples[i].Sent && p.ops[i].failed() {
			v.Failed++
		}
	}
	return v
}

// finishChecks runs the correctness checks over everything served, sets
// recall_at_10 and ok_frac, and fills the attempted/failed counts.
func (r *runner) finishChecks(rep *report, s *system, seed int64) error {
	var recall float64
	var wrong int
	if r.w.Live {
		if err := settle(s); err != nil {
			return err
		}
		// Recall over the folded live set, through the served path.
		live := r.liveSet()
		sample := sampleServed(r.allOps(), recallSample, seed)
		for _, qi := range sample {
			o := &opRec{Kind: opSearch, Arg: qi}
			r.send(0, o)
			r.mu.Lock()
			r.extra = append(r.extra, o)
			r.mu.Unlock()
			if o.failed() {
				continue
			}
			recall += recallOf(o.Resp.IDs, exactKNN(live, r.in.Pool[qi], K))
		}
		recall /= float64(len(sample))
		maxID := r.in.DS.Len() + int(s.ls.Stats().Inserts)
		bad, first := r.checkLiveAnswers(r.allOps(), maxID)
		if bad > 0 {
			wrong += bad
			rep.fail("%d merged search answers invalid; first: %s", bad, first)
		}
		r.mon.close()
		if err := s.close(); err != nil {
			return fmt.Errorf("closing live system: %w", err)
		}
		bad, first, err := r.checkRecovery(s.walDir)
		if err != nil {
			return err
		}
		if bad > 0 {
			wrong += bad
			rep.fail("%d acknowledged writes not recovered; first: %s", bad, first)
		}
		fmt.Printf("checks: %d merged answers valid, %d acknowledged inserts and %d deletes recovered from the WAL\n",
			countKind(r.allOps(), opSearch), len(r.acked), len(r.deletedAt))
	} else {
		base := basePoints(r.in.DS)
		sample := sampleServed(r.allOps(), recallSample, seed)
		answer := map[int][]int{}
		for _, o := range r.allOps() {
			if o.Kind == opSearch && !o.failed() {
				answer[o.Arg] = o.Resp.IDs
			}
		}
		for _, qi := range sample {
			recall += recallOf(answer[qi], exactKNN(base, r.in.Pool[qi], K))
		}
		recall /= float64(len(sample))
		bad, first, err := checkAnswers(s.eng, r.in.Pool, r.allOps())
		if err != nil {
			return err
		}
		if bad > 0 {
			wrong += bad
			rep.fail("%d HTTP answers differ from direct Engine.Search; first: %s", bad, first)
		}
		fmt.Printf("checks: %d HTTP answers equal direct Engine.Search (ids and page_reads)\n", countKind(r.allOps(), opSearch))
	}
	rep.set("recall_at_10", recall, fmt.Sprintf("vs brute-force kNN over a seeded sample of up to %d served queries", recallSample))

	ops := r.allOps()
	failed := wrong
	for _, o := range ops {
		if o.failed() {
			failed++
		}
	}
	if failed > len(ops) {
		failed = len(ops)
	}
	rep.attempted, rep.failed = len(ops), failed
	frac := float64(failed) / float64(len(ops))
	fmt.Printf("failed_frac %.6f (%d of %d operations failed, were shed or were wrong)\n", frac, failed, len(ops))
	rep.set("ok_frac", 1-frac, "1 - failed_frac")
	if failed > 0 {
		rep.fail("%d of %d operations failed or were wrong", failed, len(ops))
	}
	return nil
}

func countKind(ops []*opRec, k opKind) int {
	n := 0
	for _, o := range ops {
		if o.Kind == k && !o.failed() {
			n++
		}
	}
	return n
}

// statusCounts tallies refusals and errors the way the server reports them.
func statusCounts(ops []*opRec) (shed, c4xx, c5xx int) {
	for _, o := range ops {
		switch {
		case o.Status == http.StatusServiceUnavailable:
			shed++
		case o.Status >= 400 && o.Status < 500:
			c4xx++
		case o.Status >= 500:
			c5xx++
		}
	}
	return
}
