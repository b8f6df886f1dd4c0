package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"exploitbit"
	"exploitbit/internal/core"
	"exploitbit/internal/disk"
	"exploitbit/internal/lsh"
	"exploitbit/internal/server"
)

// system is one set-up instance of the program under test, serving over a
// loopback listener.
type system struct {
	sys *exploitbit.System     // read workloads
	eng *exploitbit.Engine     // read workloads: the facade engine behind ServeWith
	ls  *exploitbit.LiveSystem // read-write
	tau int

	srv    *http.Server  // serves the facade handler (ServeWith / ServeLive)
	served chan struct{} // closed when Serve returns
	url    string
	walDir string
}

// startHTTP serves h on a loopback listener with ebc-serve's timeouts.
func startHTTP(h http.Handler) (*http.Server, chan struct{}, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, "", err
	}
	srv := &http.Server{
		Handler:        h,
		ReadTimeout:    10 * time.Second,
		WriteTimeout:   30 * time.Second,
		IdleTimeout:    2 * time.Minute,
		MaxHeaderBytes: 64 << 10,
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ln) // returns ErrServerClosed after Shutdown
	}()
	return srv, done, "http://" + ln.Addr().String(), nil
}

// waitReady polls /healthz until the listener answers.
func waitReady(url string) error {
	c := &http.Client{Timeout: time.Second}
	defer c.CloseIdleConnections()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := c.Get(url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server at %s not ready: %v", url, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// setUp builds the system from in-memory inputs up to a ready handler; the
// returned duration is the setup_s span.
func setUp(w workload, in *inputs, workdir string) (*system, time.Duration, error) {
	dir, err := os.MkdirTemp(workdir, "sys-")
	if err != nil {
		return nil, 0, err
	}
	s := &system{}
	budget := w.cacheBudget(in.DS)
	start := time.Now()
	var h http.Handler
	if w.Live {
		s.walDir = filepath.Join(dir, "wal")
		s.ls, err = exploitbit.OpenLive(in.DS, in.Profile,
			exploitbit.Options{Dir: dir},
			core.Config{Method: exploitbit.HCO, CacheBytes: budget, SmoothEps: 0.01},
			exploitbit.MaintainOptions{},
			exploitbit.LiveOptions{WalDir: s.walDir, Fsync: exploitbit.FsyncAlways, CompactThreshold: w.CompactThreshold})
		if err != nil {
			return nil, 0, err
		}
		s.tau = s.ls.Maintainer.Stats().Tau
		h = exploitbit.ServeLive(s.ls, exploitbit.ServeOptions{})
	} else {
		s.sys, err = exploitbit.Open(in.DS, in.Profile, exploitbit.Options{Dir: dir})
		if err != nil {
			return nil, 0, err
		}
		s.tau = s.sys.OptimalTau(budget)
		s.eng, err = s.sys.Engine(exploitbit.HCO, budget, s.tau)
		if err != nil {
			s.sys.Close()
			return nil, 0, err
		}
		h = exploitbit.ServeWith(s.eng, in.DS.Dim, exploitbit.ServeOptions{})
	}
	s.srv, s.served, s.url, err = startHTTP(h)
	if err == nil {
		err = waitReady(s.url)
	}
	elapsed := time.Since(start)
	if err != nil {
		s.close()
		return nil, 0, err
	}
	return s, elapsed, nil
}

// close stops the listener (waiting for Serve to return) and releases the
// system.
func (s *system) close() error {
	if s.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		s.srv.Shutdown(ctx)
		cancel()
		<-s.served
		s.srv = nil
	}
	var err error
	if s.ls != nil {
		err = s.ls.Close()
		s.ls = nil
	}
	if s.sys != nil {
		err = s.sys.Close()
		s.sys = nil
	}
	return err
}

// diskStats is the serving point file's counters.
func (s *system) diskStats() disk.Stats {
	if s.ls != nil {
		return s.ls.Maintainer.DiskStats()
	}
	return s.sys.PF.Stats()
}

// describe reports the cache configuration setup chose.
func (s *system) describe() string {
	eng := s.eng
	if s.ls != nil {
		eng = s.ls.Maintainer.Engine()
	}
	return fmt.Sprintf("HC-O tau %d (OptimalTau), cache capacity %d points", s.tau, eng.CacheCapacity())
}

// tio is the point file's modeled per-page latency.
func (s *system) tio() time.Duration {
	if s.ls != nil {
		return s.ls.Sys.PF.Tio()
	}
	return s.sys.PF.Tio()
}

// heapMB forces a collection and reports HeapInuse in MiB.
func heapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapInuse) / (1 << 20)
}

// wireStats converts engine stats to the wire shape exactly as the facade's
// handler adapter does.
func wireStats(st core.QueryStats) server.Stats {
	return server.Stats{
		Candidates:   st.Candidates,
		Hits:         st.Hits,
		Pruned:       st.Pruned,
		TrueHits:     st.TrueHits,
		Remaining:    st.Remaining,
		Fetched:      st.Fetched,
		PageReads:    st.PageReads,
		SimulatedIO:  st.SimulatedIO,
		GenTime:      st.GenTime,
		ReduceTime:   st.ReduceTime,
		RefineTime:   st.RefineTime,
		Degraded:     st.Degraded,
		FailedShards: st.FailedShards,
	}
}

// tracedSearcher is the benchmark-side server.Searcher: it spans the call
// into the engine (Engine.SearchCtx or LiveSystem.Search) and keeps the
// engine-reported stats with the span.
type tracedSearcher struct {
	t      *tracer
	search func(ctx context.Context, q []float32, k int) ([]int, core.QueryStats, error)
}

func (s tracedSearcher) Search(ctx context.Context, q []float32, k int) ([]int, server.Stats, error) {
	id, ok := reqOf(ctx)
	if ok && len(q) > 0 {
		s.t.reqOfQuery.Store(&q[0], id)
		defer s.t.reqOfQuery.Delete(&q[0])
	}
	start := s.t.now()
	ids, st, err := s.search(ctx, q, k)
	end := s.t.now()
	if ok {
		st := st
		s.t.record(id, lCore, start, end, &st)
	}
	return ids, wireStats(st), err
}

// tracedIngestor is the benchmark-side server.Ingestor over a LiveSystem,
// translating the unknown-id sentinel as the facade's adapter does.
type tracedIngestor struct {
	t  *tracer
	ls *exploitbit.LiveSystem
}

func (g tracedIngestor) Insert(ctx context.Context, vec []float32) (int, error) {
	id, ok := reqOf(ctx)
	start := g.t.now()
	pid, err := g.ls.Insert(ctx, vec)
	if ok {
		g.t.record(id, lCore, start, g.t.now(), nil)
	}
	return pid, err
}

func (g tracedIngestor) Delete(ctx context.Context, pid int) error {
	id, ok := reqOf(ctx)
	start := g.t.now()
	err := g.ls.Delete(ctx, pid)
	if ok {
		g.t.record(id, lCore, start, g.t.now(), nil)
	}
	if errors.Is(err, exploitbit.ErrUnknownID) {
		return fmt.Errorf("%w (id %d)", server.ErrUnknownID, pid)
	}
	return err
}

// tracedHandler builds the traced twin of the system's facade handler:
// server.New over the benchmark's adapters, wrapped in the span
// middleware. For read workloads the engine is rebuilt around the
// benchmark's own lsh.Build with the facade's default parameters, so Phase 1
// runs inside a timed CandidateFunc; it is checked id-identical to the
// facade engine before use.
func (s *system) tracedHandler(t *tracer, in *inputs, w workload) (http.Handler, *exploitbit.Engine, error) {
	cfg := server.Config{Dim: in.DS.Dim}
	if s.ls != nil {
		h := server.New(tracedSearcher{t: t, search: func(ctx context.Context, q []float32, k int) ([]int, core.QueryStats, error) {
			return s.ls.Search(ctx, q, k, nil)
		}}, cfg)
		h.SetIngestor(tracedIngestor{t: t, ls: s.ls})
		return t.middleware(h), nil, nil
	}
	ix := lsh.Build(in.DS, lsh.Params{})
	cands := t.timedCandidates(func(q []float32, k int) ([]int, float64) {
		r := ix.Candidates(q, k)
		return r.IDs, r.Dmax
	})
	prof := core.BuildProfile(in.DS, cands, in.Profile, 10)
	eng, err := core.NewEngine(s.sys.PF, prof, cands, core.Config{
		Method: exploitbit.HCO, CacheBytes: w.cacheBudget(in.DS), Tau: s.tau, SmoothEps: 0.01,
	})
	if err != nil {
		return nil, nil, err
	}
	return t.middleware(server.New(tracedSearcher{t: t, search: eng.SearchCtx}, cfg)), eng, nil
}
