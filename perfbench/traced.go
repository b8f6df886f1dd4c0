package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"exploitbit"
)

// Integrity tolerances of the traced run.
const (
	// sumTolerance: per request, generator lag plus the layer self times
	// must equal the due-to-response latency within this much (the
	// generator's own bookkeeping runs outside the client span).
	sumTolerance = 50 * time.Microsecond
	// sumQuorum is the share of requests that must meet sumTolerance; a
	// goroutine preempted between the generator's clock read and the client
	// span start can exceed it.
	sumQuorum = 0.99
	// phaseTolerance: the engine-reported Phase 2+3 time must fit inside
	// the core span's self time within this much, on every request.
	phaseTolerance = 5 * time.Microsecond
)

// layerSamples collects per-request layer figures of one traced phase.
type layerSamples struct {
	httpWait, srvSelf, coreDur, coreSelf, reduce, refine, lsh []float64 // µs, searches
	insCore, delCore                                          []float64 // µs
	insCompacting, insIdle                                    []float64 // µs, insert spans split by compaction
	searchLat                                                 []float64 // ms, due → response
	st                                                        struct {
		n                                                        int
		cands, hits, pruned, trueHits, remaining, fetched, reads int64
	}
	requests, notNested, sumOff, phaseOver, missing int
	compacting, idle                                phaseSplit
}

// phaseSplit accumulates search figures inside or outside compaction
// windows, for the attribution of the latency rise during compaction.
type phaseSplit struct {
	n                                      int
	lat, lag, wait, self, core, cands, red float64 // sums: ms, µs, µs, µs, µs, count, µs
	lats                                   []float64
}

func (p *phaseSplit) add(lat, lag, wait, self, core, cands, red float64) {
	p.n++
	p.lat += lat
	p.lag += lag
	p.wait += wait
	p.self += self
	p.core += core
	p.cands += cands
	p.red += red
	p.lats = append(p.lats, lat)
}

func (p *phaseSplit) mean(x float64) float64 { return x / float64(p.n) }

// analyze joins a traced phase's operations with their spans.
func analyze(t *tracer, p *phaseResult, windows []window) *layerSamples {
	ls := &layerSamples{}
	byReq := t.byRequest()
	for i := range p.ops {
		sm, o := p.samples[i], &p.ops[i]
		if !sm.Sent || o.failed() {
			continue
		}
		rt := byReq[o.Req]
		if rt == nil || !rt.has[lClient] || !rt.has[lHandler] || !rt.has[lCore] {
			ls.missing++
			continue
		}
		ls.requests++
		if !rt.nested() {
			ls.notNested++
		}
		self := rt.selfTimes()
		var sum int64
		for _, x := range self {
			sum += x
		}
		if d := sm.Lag() + time.Duration(sum) - sm.Latency(); d > sumTolerance || d < -sumTolerance {
			ls.sumOff++
		}
		core := rt.spans[lCore]
		switch o.Kind {
		case opInsert:
			d := us(time.Duration(core.dur()))
			ls.insCore = append(ls.insCore, d)
			if overlaps(windows, p.start.Add(sm.Start), p.start.Add(sm.End)) {
				ls.insCompacting = append(ls.insCompacting, d)
			} else {
				ls.insIdle = append(ls.insIdle, d)
			}
		case opDelete:
			ls.delCore = append(ls.delCore, us(time.Duration(core.dur())))
		case opSearch:
			st := core.st
			if st.ReduceTime+st.RefineTime > time.Duration(self[lCore])+phaseTolerance {
				ls.phaseOver++
			}
			ls.httpWait = append(ls.httpWait, us(time.Duration(self[lClient])))
			ls.srvSelf = append(ls.srvSelf, us(time.Duration(self[lHandler])))
			ls.coreDur = append(ls.coreDur, us(time.Duration(core.dur())))
			ls.coreSelf = append(ls.coreSelf, us(time.Duration(self[lCore])))
			ls.reduce = append(ls.reduce, us(st.ReduceTime))
			ls.refine = append(ls.refine, us(st.RefineTime))
			if rt.has[lLSH] {
				ls.lsh = append(ls.lsh, us(time.Duration(rt.spans[lLSH].dur())))
			}
			ls.searchLat = append(ls.searchLat, ms(sm.Latency()))
			ls.st.n++
			ls.st.cands += int64(st.Candidates)
			ls.st.hits += int64(st.Hits)
			ls.st.pruned += int64(st.Pruned)
			ls.st.trueHits += int64(st.TrueHits)
			ls.st.remaining += int64(st.Remaining)
			ls.st.fetched += int64(st.Fetched)
			ls.st.reads += st.PageReads
			split := &ls.idle
			if overlaps(windows, p.start.Add(sm.Due), p.start.Add(sm.End)) {
				split = &ls.compacting
			}
			split.add(ms(sm.Latency()), us(sm.Lag()), us(time.Duration(self[lClient])),
				us(time.Duration(self[lHandler])), us(time.Duration(core.dur())), float64(st.Candidates), us(st.ReduceTime))
		}
	}
	return ls
}

func tracedRun(rep *report, w workload, in *inputs, seed int64, measure time.Duration, work, workdir string) error {
	s, _, err := startServing(w, in, work, 1)
	if err != nil {
		return err
	}
	defer s.close()
	fmt.Println("  system:", s.describe())

	t := newTracer()
	th, teng, err := s.tracedHandler(t, in, w)
	if err != nil {
		return err
	}
	if teng != nil {
		// The timed CandidateFunc engine must answer exactly as the facade
		// engine does.
		n := min(200, len(in.Pool))
		for i := 0; i < n; i++ {
			a, sa, errA := s.eng.Search(in.Pool[i], K)
			b, sb, errB := teng.Search(in.Pool[i], K)
			if errA != nil || errB != nil {
				return fmt.Errorf("identity check: %v / %v", errA, errB)
			}
			if !equalInts(a, b) || sa.Candidates != sb.Candidates || sa.Hits != sb.Hits || sa.Pruned != sb.Pruned ||
				sa.TrueHits != sb.TrueHits || sa.Remaining != sb.Remaining || sa.PageReads != sb.PageReads {
				rep.fail("timed-CandidateFunc engine differs from the facade engine on pool query %d", i)
				break
			}
		}
		fmt.Printf("checks: timed-CandidateFunc engine id- and stats-identical to the facade engine on %d queries\n", n)
	}
	srv2, done2, url2, err := startHTTP(th)
	if err != nil {
		return err
	}
	stopTraced := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		srv2.Shutdown(ctx)
		cancel()
		<-done2
	}
	defer stopTraced()
	if err := waitReady(url2); err != nil {
		return err
	}

	cl, cl2 := newClient(s.url, maxConns()), newClient(url2, maxConns())
	defer cl.close()
	defer cl2.close()
	r := newRunner(w, in, cl, maxConns(), seed)
	if w.Live {
		r.mon = startMonitor(s.ls, w.CompactThreshold)
		defer r.mon.close()
	}

	// Untraced reference, then the traced phase at the same offered rates,
	// then the capacity ladder, untraced.
	phase := time.Duration(fixedShare * float64(measure))
	r.run(w.SearchRate, w.InsertRate, warmUp, phaseLag)
	up := r.run(w.SearchRate, w.InsertRate, phase, phaseLag)
	untracedLat := up.latencies(opSearch)
	untraced := summarize(untracedLat)
	r.cl, r.t = cl2, t
	r.run(w.SearchRate, w.InsertRate, warmUp/2, phaseLag)
	t.reset()
	if r.mon != nil {
		r.mon.reset()
	}
	disk0 := s.diskStats()
	var live0 exploitbit.LiveStats
	var maint0 exploitbit.MaintainStats
	if w.Live {
		live0, maint0 = s.ls.Stats(), s.ls.Maintainer.Stats()
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	tp := r.run(w.SearchRate, w.InsertRate, phase, phaseLag)
	cpu1 := cpuTime()
	runtime.ReadMemStats(&m1)
	disk1 := s.diskStats()
	r.cl, r.t = cl, nil

	var view monitorView
	if w.Live {
		view = r.mon.view()
	}
	ls := analyze(t, tp, view.Windows)
	dir, err := traceDir(workdir)
	if err != nil {
		return err
	}
	dump := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", w.Name, seed))
	if err := t.writeFile(dump); err != nil {
		return err
	}
	fmt.Printf("trace: %d spans of %d requests written to %s\n", len(t.spans), ls.requests, dump)

	// Integrity.
	if ls.missing > 0 {
		rep.fail("%d traced requests lack a span", ls.missing)
	}
	if ls.notNested > 0 {
		rep.fail("%d of %d requests have spans that do not nest (client ⊇ handler ⊇ core ⊇ lsh)", ls.notNested, ls.requests)
	}
	if float64(ls.sumOff) > (1-sumQuorum)*float64(ls.requests) {
		rep.fail("%d of %d requests: lag + layer self times differ from latency by more than %v", ls.sumOff, ls.requests, sumTolerance)
	}
	if ls.phaseOver > 0 {
		rep.fail("%d searches report Phase 2+3 time beyond core.self_us (+%v)", ls.phaseOver, phaseTolerance)
	}
	fmt.Printf("checks: spans nest on %d/%d requests; lag + self times = latency within %v on %d/%d (need %.0f%%); reported Phase 2+3 inside core.self on %d/%d\n",
		ls.requests-ls.notNested, ls.requests, sumTolerance, ls.requests-ls.sumOff, ls.requests, 100*sumQuorum,
		ls.st.n-ls.phaseOver, ls.st.n)

	sent := 0
	for _, sm := range tp.samples {
		if sm.Sent {
			sent++
		}
	}
	lag := make([]float64, 0, sent)
	backlogMax := 0
	for _, sm := range tp.samples {
		if sm.Sent {
			lag = append(lag, ms(sm.Lag()))
			backlogMax = max(backlogMax, sm.Backlog)
		}
	}
	rep.set("search_p99_ms", percentile(untracedLat, 99), fmt.Sprintf("untraced phase, n=%d at %.0f/s", len(untracedLat), w.SearchRate))
	lagD := summarize(lag)
	rep.set("loadgen.lag_p99_ms", lagD.Tail, fmt.Sprintf("p%g of %d sends", lagD.TailP, lagD.N))
	rep.set("loadgen.backlog_max", float64(backlogMax), "ops due but unsent")
	rep.set("http.wait_us_p50", median(ls.httpWait), "client span minus ServeHTTP span")
	rep.set("server.self_us_p50", median(ls.srvSelf), "ServeHTTP span minus searcher span")

	n := float64(ls.st.n)
	traced := summarize(ls.searchLat)
	coreD := summarize(ls.coreDur)
	rep.set("core.search_us_p50", coreD.P50, fmt.Sprintf("n=%d", coreD.N))
	rep.set("core.search_us_p99", coreD.Tail, fmt.Sprintf("p%g", coreD.TailP))
	rep.set("core.self_us_p50", median(ls.coreSelf), "core span minus lsh span")
	rep.set("core.reduce_us_reported_p50", median(ls.reduce), "engine-reported QueryStats.ReduceTime")
	if w.Live {
		rep.set("lsh.candidates_us_p50", 0, "n/a: OpenLive builds its index inside the program; no public seam")
	} else {
		rep.set("lsh.candidates_us_p50", median(ls.lsh), "timed CandidateFunc span")
	}
	rep.set("lsh.candidates_per_query", float64(ls.st.cands)/n, "|C(q)|")
	rep.set("cache.hit_ratio", float64(ls.st.hits)/float64(ls.st.cands), fmt.Sprintf("%d hits / %d candidates", ls.st.hits, ls.st.cands))
	rep.set("bounds.pruned_per_query", float64(ls.st.pruned)/n, "")
	rep.set("bounds.true_hits_per_query", float64(ls.st.trueHits)/n, "")
	rep.set("bounds.refine_ratio", float64(ls.st.remaining)/float64(ls.st.cands), fmt.Sprintf("%d remaining / %d candidates", ls.st.remaining, ls.st.cands))
	rep.set("disk.page_reads_per_query", float64(ls.st.reads)/n, fmt.Sprintf("%d reads / %d searches", ls.st.reads, ls.st.n))
	rep.set("disk.fetched_per_query", float64(ls.st.fetched)/n, "")
	rep.set("multistep.refine_us_reported_p50", median(ls.refine), "engine-reported QueryStats.RefineTime")
	rep.set("disk.modeled_io_ms_per_query", float64(ls.st.reads)/n*ms(s.tio()),
		"PageReads x Tio; modeled, not part of any measured time")
	rep.set("disk.retries", float64(disk1.Retries-disk0.Retries), "PointFile.Stats delta")
	rep.set("disk.errors", float64(disk1.TransientErrors+disk1.PermanentErrors-disk0.TransientErrors-disk0.PermanentErrors), "PointFile.Stats delta")

	shed, c4, c5 := statusCounts(r.allOps())
	rep.set("server.shed", float64(shed), "503 responses, whole run")
	rep.set("server.status_4xx", float64(c4), "whole run")
	rep.set("server.status_5xx", float64(c5), "whole run (503 counted as shed)")

	ins, del := summarize(tp.latencies(opInsert)), summarize(tp.latencies(opDelete))
	insC, delC := summarize(ls.insCore), summarize(ls.delCore)
	noWrites := ""
	if !w.Live {
		noWrites = "n/a: read-only workload"
	}
	rep.set("insert_p50_ms", ins.P50, noteOr(noWrites, fmt.Sprintf("n=%d, due to response", ins.N)))
	rep.set("insert_p99_ms", ins.Tail, noteOr(noWrites, fmt.Sprintf("p%g", ins.TailP)))
	rep.set("delete_p50_ms", del.P50, noteOr(noWrites, fmt.Sprintf("n=%d", del.N)))
	rep.set("delete_p99_ms", del.Tail, noteOr(noWrites, fmt.Sprintf("p%g", del.TailP)))
	rep.set("ingest.insert_us_p50", insC.P50, noteOr(noWrites, "LiveSystem.Insert span"))
	rep.set("ingest.insert_us_p99", insC.Tail, noteOr(noWrites, fmt.Sprintf("p%g", insC.TailP)))
	rep.set("ingest.delete_us_p50", delC.P50, noteOr(noWrites, "LiveSystem.Delete span"))
	rep.set("ingest.delete_us_p99", delC.Tail, noteOr(noWrites, fmt.Sprintf("p%g", delC.TailP)))

	if w.Live {
		live1, maint1 := s.ls.Stats(), s.ls.Maintainer.Stats()
		writes := float64(len(ls.insCore) + len(ls.delCore))
		rep.set("ingest.wal_bytes_per_write", float64(view.WalGrowth)/writes, fmt.Sprintf("%d bytes / %.0f writes, fsync always", view.WalGrowth, writes))
		rep.set("ingest.delta_points_max", float64(view.DeltaMax), "polled Live.Stats")
		rep.set("ingest.tombstones_max", float64(view.TombsMax), "polled Live.Stats")
		rep.set("ingest.compactions", float64(live1.Compactions-live0.Compactions), "")
		rep.set("ingest.compaction_errors", float64(live1.CompactionErrors-live0.CompactionErrors), "")
		rep.set("ingest.compaction_s", median(view.CompactionS), fmt.Sprintf("median of %d, threshold crossing to Compactions increment", len(view.CompactionS)))
		c, i := summarize(ls.compacting.lats), summarize(ls.idle.lats)
		rep.set("ingest.search_p99_compacting_ms", c.Tail, fmt.Sprintf("p%g of %d searches overlapping a compaction", c.TailP, c.N))
		rep.set("ingest.search_p99_idle_ms", i.Tail, fmt.Sprintf("p%g of %d searches outside compactions", i.TailP, i.N))
		rep.set("maintain.rebuilds", float64(maint1.Rebuilds-maint0.Rebuilds), "MaintainStats delta (compactions install through rebuilds)")
		rep.set("maintain.rebuild_s", median(view.RebuildWalls), fmt.Sprintf("median LastRebuildWall of %d", len(view.RebuildWalls)))
		attribute(ls)
	} else {
		for _, name := range []string{"ingest.wal_bytes_per_write", "ingest.delta_points_max", "ingest.tombstones_max",
			"ingest.compactions", "ingest.compaction_errors", "ingest.compaction_s",
			"ingest.search_p99_compacting_ms", "ingest.search_p99_idle_ms"} {
			rep.set(name, 0, noWrites)
		}
		rep.set("maintain.rebuilds", 0, "plain engine: no maintainer")
		rep.set("maintain.rebuild_s", 0, "plain engine: no maintainer")
	}

	ops := float64(sent)
	rep.set("runtime.cpu_us_per_op", us(cpu1-cpu0)/ops, "getrusage user+sys, client and server share the process")
	rep.set("runtime.allocs_per_op", float64(m1.Mallocs-m0.Mallocs)/ops, "")
	rep.set("runtime.gc_cycles", float64(m1.NumGC-m0.NumGC), "during the traced phase")
	rep.set("trace.overhead_pct", 100*(traced.P50-untraced.P50)/untraced.P50,
		fmt.Sprintf("traced p50 %.3f ms vs untraced %.3f ms", traced.P50, untraced.P50))

	stopTraced()
	if err := r.capacityLadder(rep, s, capacityEstimate(up, maxConns()), time.Duration(ladderShare*float64(measure))); err != nil {
		return err
	}
	return r.finishChecks(rep, s, seed)
}

func noteOr(override, note string) string {
	if override != "" {
		return override
	}
	return note
}

// attribute prints which layer accounts for the rise in search latency
// while a compaction is in flight, compared with idle: the split of the
// mean rise across generator lag, client-side wait (CPU and connection
// contention), server self time and the LiveSystem.Search span, with the
// overlay size and the insert (WAL fsync) span beside it.
func attribute(ls *layerSamples) {
	c, i := &ls.compacting, &ls.idle
	if c.n == 0 || i.n == 0 {
		fmt.Printf("attribution: no comparison (%d searches during compaction, %d idle)\n", c.n, i.n)
		return
	}
	rise := []struct {
		name string
		d    float64 // µs
	}{
		{"loadgen lag (queued behind earlier requests)", c.mean(c.lag) - i.mean(i.lag)},
		{"http.wait", c.mean(c.wait) - i.mean(i.wait)},
		{"server.self", c.mean(c.self) - i.mean(i.self)},
		{"core (LiveSystem.Search)", c.mean(c.core) - i.mean(i.core)},
	}
	top := 0
	for j := range rise {
		if rise[j].d > rise[top].d {
			top = j
		}
	}
	fmt.Printf("attribution: mean search latency %.3f ms during compaction (n=%d) vs %.3f ms idle (n=%d), %+.3f ms\n",
		c.mean(c.lat), c.n, i.mean(i.lat), i.n, c.mean(c.lat)-i.mean(i.lat))
	for _, x := range rise {
		fmt.Printf("attribution:   %-46s %+9.1f us\n", x.name, x.d)
	}
	fmt.Printf("attribution:   |C(q)| %.1f vs %.1f (overlay scoring), reported reduce %.1f vs %.1f us\n",
		c.mean(c.cands), i.mean(i.cands), c.mean(c.red), i.mean(i.red))
	fmt.Printf("attribution:   insert span p50 %.1f us during compaction (n=%d) vs %.1f us idle (n=%d) (WAL fsync)\n",
		median(ls.insCompacting), len(ls.insCompacting), median(ls.insIdle), len(ls.insIdle))
	fmt.Printf("attribution: largest rise: %s\n", rise[top].name)
}
