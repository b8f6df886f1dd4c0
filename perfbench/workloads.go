package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"exploitbit"
)

// workload is one traffic mix. Everything it serves is generated from the
// run's seed; the program under test receives only the generated vectors.
type workload struct {
	Name string
	Why  string

	// Dataset and caching.
	Gen      func(seed int64) *exploitbit.Dataset
	CacheDiv int64 // cache budget = point-file bytes / CacheDiv

	// Served query stream: Zipf popularity over a query pool. With
	// ContinueLog the stream is the profiling log's future (one log split
	// into WL and the served tail, the paper's setup of Section 5.1), so
	// the cache was built for its working set; otherwise the pool and
	// sequence are drawn apart from the profiling log with a distinct seed.
	PoolSize    int
	ZipfS       float64
	ContinueLog bool

	// Open-loop offered rates (per second) for the fixed-rate phase.
	SearchRate float64
	InsertRate float64 // read-write only; one /delete rides per 8 inserts

	// Capacity ladder: rung i offers LadderBase·LadderRatio^i searches per
	// second (inserts stay at InsertRate). A rung passes when the search
	// tail latency stays within Limit, the generator backlog does not grow
	// and no operation fails.
	LadderBase float64
	Limit      time.Duration

	// Live ingest (read-write only).
	Live             bool
	CompactThreshold int
}

// LadderRatio is the geometric step of every capacity ladder (8%, finer
// than the 10% the metric definition allows).
const LadderRatio = 1.08

// ladderRungs bounds the ladder: LadderBase·1.08^59 ≈ 94×LadderBase.
const ladderRungs = 60

// profileLog is the workload log the system profiles at setup: the shape
// ebc-serve generates when started without -log, at half its length (the
// profile's Phase 1 calls dominate set-up time, and set-up runs five times
// per run).
var profileLog = exploitbit.LogConfig{PoolSize: 500, Length: 1000, ZipfS: 1.3, Perturb: 0.005}

// quickstart64 is the quickstart example's 64-d clustered dataset at n points.
func quickstart64(n int, seed int64) *exploitbit.Dataset {
	return exploitbit.Generate(exploitbit.DatasetConfig{
		Name: "demo", N: n, Dim: 64, Clusters: 20,
		Std: 0.05, Skew: 1.8, Ndom: 1024, Seed: seed, ValueCoherence: 0.6,
	})
}

var workloads = []workload{
	{
		Name:        "hot-read",
		Why:         "20k x 64-d, cache 1/4, the profiled log's own Zipf 1.3 stream: the working set fits the cache and Phase 1 dominates; 200/s fixed, ladder 50*1.08^i/s, p99 limit 50 ms",
		Gen:         func(seed int64) *exploitbit.Dataset { return quickstart64(20000, seed) },
		CacheDiv:    4,
		PoolSize:    500,
		ZipfS:       1.3,
		ContinueLog: true,
		SearchRate:  200,
		LadderBase:  50,
		Limit:       50 * time.Millisecond,
	},
	{
		Name:       "cold-wide",
		Why:        "5k x 960-d SOGOU-like, cache 1/16, Zipf 1.01 over 4000 queries apart from the log: misses, bounds, refinement I/O and JSON; 200/s fixed, ladder 30*1.08^i/s, p99 limit 60 ms",
		Gen:        func(seed int64) *exploitbit.Dataset { return exploitbit.SogouLike(5000, seed) },
		CacheDiv:   16,
		PoolSize:   4000,
		ZipfS:      1.01,
		SearchRate: 200,
		LadderBase: 30,
		Limit:      60 * time.Millisecond,
	},
	{
		Name:             "read-write",
		Why:              "OpenLive 5k x 64-d, fsync always: /search 200/s beside /insert 80/s and a /delete per 8 inserts, so WAL, overlay and compaction run; ladder 50*1.08^i/s, p99 limit 100 ms",
		Gen:              func(seed int64) *exploitbit.Dataset { return quickstart64(5000, seed) },
		CacheDiv:         4,
		PoolSize:         500,
		ZipfS:            1.3,
		SearchRate:       200,
		InsertRate:       80,
		LadderBase:       50,
		Limit:            100 * time.Millisecond,
		Live:             true,
		CompactThreshold: 256,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// inputs is everything a run serves.
type inputs struct {
	DS      *exploitbit.Dataset
	Profile [][]float32 // the historical log the system profiles
	Pool    [][]float32 // distinct served queries
	Seq     []int       // served query order: indices into Pool
	Inserts [][]float32 // vectors for /insert, in order (read-write)
}

// dataSeed fixes each workload's dataset, profiling log and query pool:
// they are part of the workload's definition. The run's --seed draws the
// traffic: which stretch of the query stream is served, the order of
// operation kinds, the inserted vectors and the check samples.
const dataSeed = 1

// streamSpan is the length of the stationary query stream a run's
// seed-chosen window is cut from.
const streamSpan = 300_000

// subSeed derives independent random streams from one seed.
func subSeed(seed int64, stream int64) int64 { return seed*1_000_003 + stream }

// genInputs builds a run's inputs. seqLen bounds how many searches a run
// can issue; nInserts how many inserts.
func genInputs(w workload, seed int64, seqLen, nInserts int) *inputs {
	ds := w.Gen(dataSeed)
	in := &inputs{DS: ds}
	pl := profileLog
	pl.Seed = subSeed(dataSeed, 2)
	var stream []int
	if w.ContinueLog {
		pl.PoolSize, pl.ZipfS, pl.Length = w.PoolSize, w.ZipfS, profileLog.Length+streamSpan
		log := exploitbit.GenLog(ds, pl)
		for _, qi := range log.Seq[:profileLog.Length] {
			in.Profile = append(in.Profile, log.Pool[qi])
		}
		in.Pool, stream = log.Pool, log.Seq[profileLog.Length:]
	} else {
		in.Profile = exploitbit.GenLog(ds, pl).Queries()
		served := exploitbit.GenLog(ds, exploitbit.LogConfig{
			PoolSize: w.PoolSize, Length: streamSpan, ZipfS: w.ZipfS, Perturb: 0.005, Seed: subSeed(dataSeed, 3),
		})
		in.Pool, stream = served.Pool, served.Seq
	}
	rng := rand.New(rand.NewSource(subSeed(seed, 3)))
	off := rng.Intn(len(stream) - seqLen)
	in.Seq = stream[off : off+seqLen]
	if w.Live {
		// Near-duplicates of data points; the noise pushes some coordinates
		// of the skewed marginals out of [0,1], exercising the insert clamp.
		rng := rand.New(rand.NewSource(subSeed(seed, 4)))
		in.Inserts = make([][]float32, nInserts)
		for i := range in.Inserts {
			src := ds.Point(rng.Intn(ds.Len()))
			v := make([]float32, ds.Dim)
			for j := range v {
				v[j] = src[j] + float32(rng.NormFloat64()*0.02)
			}
			in.Inserts[i] = v
		}
	}
	return in
}

// clamped is v clamped into the dataset's value domain, as the write path
// stores it.
func clamped(ds *exploitbit.Dataset, v []float32) []float32 {
	out := make([]float32, len(v))
	lo, hi := ds.Domain.Lo, ds.Domain.Hi
	for i, x := range v {
		out[i] = float32(math.Min(math.Max(float64(x), lo), hi))
	}
	return out
}

// cacheBudget is the workload's cache size for a dataset.
func (w workload) cacheBudget(ds *exploitbit.Dataset) int64 {
	return int64(ds.Len()) * int64(ds.PointSize()) / w.CacheDiv
}
