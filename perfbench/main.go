// Command perfbench is the repository benchmark. It sets up the real
// facade handler (exploitbit.ServeWith, or exploitbit.ServeLive for the
// read-write workload) behind an http.Server on a loopback listener, drives
// it with a single-process open-loop generator over at most nproc
// connections, checks every answer, and prints every metric with its unit.
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
//
//	bash perfbench/run.sh --workload hot-read --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it runs
// a separate traced pass whose spans wrap each layer's public calls from
// the benchmark's side and reports the per-layer metrics. See README.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"exploitbit/internal/disk"
)

// setupReps is how many times an untraced run sets the system up; setup_s
// is their median.
const setupReps = 5

// maxConns caps the generator's connections at the core count.
func maxConns() int {
	n := runtime.NumCPU()
	if n > 2 {
		n = 2
	}
	return n
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: hot-read, cold-wide or read-write")
		seed    = flag.Int64("seed", 1, "input seed: the same seed generates the same inputs")
		seconds = flag.Int("seconds", 20, "measured seconds per run")
		trace   = flag.Int("trace", 0, "1: traced per-layer run; 0: end-to-end run")
		workdir = flag.String("workdir", ".bench_build", "scratch directory for point files and WAL directories")
	)
	flag.Parse()
	w, err := workloadByName(*name)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: usage: --workload hot-read|cold-wide|read-write --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	ok, err := run(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *workdir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

func run(w workload, seed int64, measure time.Duration, traced bool, workdir string) (bool, error) {
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return false, err
	}
	work, err := os.MkdirTemp(workdir, "run-")
	if err != nil {
		return false, err
	}
	defer os.RemoveAll(work)

	env := probeEnv()
	env.print(os.Stdout)
	in := genInputs(w, seed, 100_000, 20_000)
	fmt.Printf("workload %s  seed %d  measure %v  traced %v\n  why: %s\n", w.Name, seed, measure, traced, w.Why)
	fmt.Printf("  dataset %d x %d-d  cache %d bytes (1/%d of the point file)  query pool %d Zipf %.2f  k %d\n",
		in.DS.Len(), in.DS.Dim, w.cacheBudget(in.DS), w.CacheDiv, w.PoolSize, w.ZipfS, K)
	fmt.Printf("  open loop over %d connections: search %.0f/s", maxConns(), w.SearchRate)
	if w.Live {
		fmt.Printf("  insert %.0f/s  delete %.0f/s  WAL fsync always  compact threshold %d", w.InsertRate, w.InsertRate/8, w.CompactThreshold)
	} else {
		fmt.Printf("  read-only: no WAL, no fsync")
	}
	fmt.Printf("\n  ladder %.0f/s x %.2f^i (i < %d), search tail limit %v;  Tio %v (modeled, never slept)\n",
		w.LadderBase, LadderRatio, ladderRungs, w.Limit, disk.DefaultTio)

	if traced {
		rep := newReport(os.Stdout, perLayer)
		if err := tracedRun(rep, w, in, seed, measure, work, workdir); err != nil {
			return false, err
		}
		return rep.correct, rep.finish()
	}
	rep := newReport(os.Stdout, endToEnd)
	if err := endToEndRun(rep, w, in, seed, measure, work); err != nil {
		return false, err
	}
	return rep.correct, rep.finish()
}

// settle waits for an in-flight compaction to land so the live set is
// quiescent.
func settle(s *system) error {
	deadline := time.Now().Add(120 * time.Second)
	for s.ls.Stats().CompactInFlight {
		if time.Now().After(deadline) {
			return fmt.Errorf("compaction still in flight after 120s")
		}
		time.Sleep(5 * time.Millisecond)
	}
	return nil
}

// traceDir is where traced runs leave their span dumps.
func traceDir(workdir string) (string, error) {
	d := filepath.Join(workdir, "traces")
	return d, os.MkdirAll(d, 0o755)
}
