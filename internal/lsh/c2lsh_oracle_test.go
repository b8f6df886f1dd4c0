package lsh

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"exploitbit/internal/dataset"
)

// oracleCandidates is a frozen copy of the original collision-counting
// loop (int32 counters with per-query version stamps, a per-increment
// closure, sort.Search window starts, a map-based fallback). Candidates
// must return exactly its Result: same IDs in the same discovery order,
// same Radius, same Dmax. fellBack reports whether the fallback ran.
func oracleCandidates(ix *Index, q []float32, k int) (res Result, fellBack bool) {
	counts := make([]int32, ix.n)
	stamp := make([]int32, ix.n)
	const qid = 1

	required := k + int(math.Ceil(ix.params.Beta*float64(ix.n)))
	if required > ix.n {
		required = ix.n
	}

	qv := make([]int64, ix.m)
	for h := 0; h < ix.m; h++ {
		qv[h] = ix.hashWith(ix.proj[h*ix.dim:(h+1)*ix.dim], ix.bias[h], q)
	}

	lo := make([]int, ix.m)
	hi := make([]int, ix.m)
	for h := range lo {
		lo[h] = sort.Search(ix.n, func(i int) bool { return ix.vals[h][i] >= qv[h] })
		hi[h] = lo[h]
	}

	var cands []int
	count := func(h, idx int) {
		id := ix.ids[h][idx]
		if stamp[id] != qid {
			stamp[id] = qid
			counts[id] = 0
		}
		counts[id]++
		if int(counts[id]) == ix.l && len(cands) < required {
			cands = append(cands, int(id))
		}
	}

	R := int64(1)
	c := int64(ix.params.C)
	for {
		exhausted := true
		for h := 0; h < ix.m; h++ {
			wlo := floorDiv(qv[h], R) * R
			whi := wlo + R
			vs := ix.vals[h]
			for lo[h] > 0 && vs[lo[h]-1] >= wlo {
				lo[h]--
				count(h, lo[h])
			}
			for hi[h] < ix.n && vs[hi[h]] < whi {
				count(h, hi[h])
				hi[h]++
			}
			if lo[h] > 0 || hi[h] < ix.n {
				exhausted = false
			}
		}
		if len(cands) >= required || exhausted {
			if len(cands) >= k || exhausted {
				if len(cands) < k {
					fellBack = true
					oracleFallback(ix, &cands, counts, stamp, qid, k)
				}
				return Result{IDs: cands, Radius: int(R), Dmax: float64(c) * float64(R) * ix.w}, fellBack
			}
		}
		R *= c
	}
}

func oracleFallback(ix *Index, cands *[]int, counts, stamp []int32, qid int32, k int) {
	in := make(map[int]bool, len(*cands))
	for _, id := range *cands {
		in[id] = true
	}
	type pc struct {
		id int
		c  int32
	}
	var rest []pc
	for id := 0; id < ix.n; id++ {
		if in[id] {
			continue
		}
		var cnt int32
		if stamp[id] == qid {
			cnt = counts[id]
		}
		rest = append(rest, pc{id, cnt})
	}
	sort.Slice(rest, func(i, j int) bool {
		if rest[i].c != rest[j].c {
			return rest[i].c > rest[j].c
		}
		return rest[i].id < rest[j].id
	})
	for _, e := range rest {
		if len(*cands) >= k {
			break
		}
		*cands = append(*cands, e.id)
	}
}

// hotReadDS is the 20k×64 quickstart-generator dataset the hot-read
// benchmark workload serves.
func hotReadDS() *dataset.Dataset {
	return dataset.Generate(dataset.Config{Name: "demo", N: 20000, Dim: 64, Clusters: 20,
		Std: 0.05, Skew: 1.8, Ndom: 1024, Seed: 1, ValueCoherence: 0.6})
}

// oracleQueries mixes perturbed data points (near neighbors exist, the
// common case) with uniform random vectors (far from everything, so the
// radius grows).
func oracleQueries(ds *dataset.Dataset, count int, seed int64) [][]float32 {
	rng := rand.New(rand.NewSource(seed))
	qs := make([][]float32, count)
	for i := range qs {
		q := make([]float32, ds.Dim)
		if i%4 == 3 {
			for j := range q {
				q[j] = rng.Float32()
			}
		} else {
			p := ds.Point(rng.Intn(ds.Len()))
			for j := range q {
				q[j] = p[j] + float32(rng.NormFloat64()*0.01)
			}
		}
		qs[i] = q
	}
	return qs
}

func sameResult(got, want Result) bool {
	return got.Radius == want.Radius && got.Dmax == want.Dmax && slices.Equal(got.IDs, want.IDs)
}

// tryOracle runs the oracle and reports ok=false where the original loop
// never terminated properly. Its aligned windows never cross zero, so when
// some point's hash values lie on the other side of zero from the query's
// and collision counting cannot finish, the original loop kept doubling R
// until int64 overflow: it either divided by zero or "exhausted" inside a
// wrapped window and returned a negative Radius and Dmax. Candidates stops
// at the level where no window can grow any more instead.
func tryOracle(ix *Index, q []float32, k int) (res Result, fellBack, ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	res, fellBack = oracleCandidates(ix, q, k)
	return res, fellBack, res.Radius > 0
}

// wellFormed checks a result on its own: radius a power of C, Dmax = C·R·w,
// min(k, n) distinct in-range ids.
func wellFormed(ix *Index, res Result, k int) string {
	c := ix.params.C
	r := 1
	for r < res.Radius {
		r *= c
	}
	if res.Radius < 1 || r != res.Radius {
		return fmt.Sprintf("radius %d is not a power of %d", res.Radius, c)
	}
	if res.Dmax != float64(c)*float64(res.Radius)*ix.w {
		return fmt.Sprintf("Dmax %v != C·R·w", res.Dmax)
	}
	if len(res.IDs) < min(k, ix.n) {
		return fmt.Sprintf("%d ids, want at least %d", len(res.IDs), min(k, ix.n))
	}
	seen := make(map[int]bool, len(res.IDs))
	for _, id := range res.IDs {
		if id < 0 || id >= ix.n || seen[id] {
			return fmt.Sprintf("id %d duplicated or out of range", id)
		}
		seen[id] = true
	}
	return ""
}

// coverage records which branches of the counting loop a case exercised.
type coverage struct {
	compared   int // queries compared exactly against the oracle
	maxRadius  int
	fellBack   bool // the oracle's fallback ran on a compared query
	clamped    bool // required = k + ⌈β·n⌉ exceeded n
	overflowed int  // queries on which the oracle overflowed R
}

func checkAgainstOracle(t *testing.T, ix *Index, qs [][]float32, k int) coverage {
	t.Helper()
	var cov coverage
	cov.clamped = k+int(math.Ceil(ix.params.Beta*float64(ix.n))) > ix.n
	for i, q := range qs {
		got := ix.Candidates(q, k)
		want, fb, ok := tryOracle(ix, q, k)
		if !ok {
			cov.overflowed++
			if msg := wellFormed(ix, got, k); msg != "" {
				t.Fatalf("query %d (k=%d, oracle overflowed): %s", i, k, msg)
			}
			continue
		}
		if !sameResult(got, want) {
			t.Fatalf("query %d (k=%d): got %d ids R=%d Dmax=%v, oracle %d ids R=%d Dmax=%v",
				i, k, len(got.IDs), got.Radius, got.Dmax, len(want.IDs), want.Radius, want.Dmax)
		}
		cov.compared++
		cov.maxRadius = max(cov.maxRadius, want.Radius)
		cov.fellBack = cov.fellBack || fb
	}
	return cov
}

// TestCandidatesMatchOracle pins Candidates to the frozen original loop,
// byte for byte, across the shapes the serving paths and experiments use
// plus the edge branches (several rehash levels, fallback after
// exhaustion, clamped threshold, k=1). Every query of the realistic shapes
// must be compared exactly; only the tiny dataset has queries on which the
// oracle overflows.
func TestCandidatesMatchOracle(t *testing.T) {
	tiny := testDS(20, 4, 6)
	mid := testDS(3000, 24, 3)
	allCompared := func(c coverage) string {
		if c.overflowed > 0 {
			return fmt.Sprintf("oracle overflowed on %d queries", c.overflowed)
		}
		return ""
	}
	cases := []struct {
		name    string
		ds      *dataset.Dataset
		params  Params
		k       int
		queries int
		check   func(coverage) string
	}{
		{"hot-read-20000x64", hotReadDS(), Params{}, 10, 60, allCompared},
		{"sogou-960d", dataset.SogouLike(2000, 4), Params{Seed: 5}, 10, 40, allCompared},
		{"small-W", mid, Params{W: Build(mid, Params{Seed: 6}).W() / 64, Seed: 6}, 10, 40,
			func(c coverage) string {
				if c.maxRadius < 8 {
					return "small W never reached radius 8"
				}
				return allCompared(c)
			}},
		{"tiny-k-above-required", tiny, Params{Seed: 6}, 25, 20,
			func(c coverage) string {
				if !c.fellBack {
					return "fallback never ran on a compared query"
				}
				return ""
			}},
		{"required-clamped", tiny, Params{Seed: 6}, 15, 20,
			func(c coverage) string {
				if !c.clamped || c.compared == 0 {
					return "required not clamped to n, or nothing compared"
				}
				return ""
			}},
		{"C=3", mid, Params{C: 3, W: Build(mid, Params{Seed: 8}).W() / 16, Seed: 8}, 10, 30, allCompared},
		{"k=1", mid, Params{Seed: 7}, 1, 40, allCompared},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ix := Build(tc.ds, tc.params)
			cov := checkAgainstOracle(t, ix, oracleQueries(tc.ds, tc.queries, 21), tc.k)
			if msg := tc.check(cov); msg != "" {
				t.Fatal(msg)
			}
		})
	}
}

// TestCandidatesStopWhenWindowsStall is the regression test for the
// overflow described at tryOracle. Mirrored data points sit on the other
// side of zero from the data under most hash functions, so most points stay
// below l, and the original loop panicked or returned a negative radius on
// every one of these queries. Candidates must return a well-formed result
// at a finite radius: the points whose count reached l, in discovery order,
// then the fallback's padding by partial count (descending, then id).
func TestCandidatesStopWhenWindowsStall(t *testing.T) {
	ds := testDS(200, 4, 15)
	ix := Build(ds, Params{Seed: 15})
	for _, k := range []int{50, 250} {
		padded := false
		for i := 0; i < 8; i++ {
			q := make([]float32, ds.Dim)
			for j, v := range ds.Point(i) {
				q[j] = -v
			}
			if _, _, ok := tryOracle(ix, q, k); ok {
				t.Fatalf("k=%d query %d: the original loop terminated; the case no longer covers the overflow", k, i)
			}
			res := ix.Candidates(q, k)
			if msg := wellFormed(ix, res, k); msg != "" {
				t.Fatalf("k=%d query %d: %s", k, i, msg)
			}
			if res.Radius > 1<<20 {
				t.Fatalf("k=%d query %d: radius %d grew far past the hash-value range", k, i, res.Radius)
			}
			// Recount from scratch: windows are nested aligned buckets, so a
			// point's final count is the number of hash functions under
			// which it shares the query's bucket at the final radius.
			R := int64(res.Radius)
			counts := make([]int, ix.n)
			for h := 0; h < ix.m; h++ {
				qb := floorDiv(ix.hashWith(ix.proj[h*ix.dim:(h+1)*ix.dim], ix.bias[h], q), R)
				for x, v := range ix.vals[h] {
					if floorDiv(v, R) == qb {
						counts[ix.ids[h][x]]++
					}
				}
			}
			reached := 0
			for _, c := range counts {
				if c >= ix.l {
					reached++
				}
			}
			for pos, id := range res.IDs {
				if (pos < reached) != (counts[id] >= ix.l) {
					t.Fatalf("k=%d query %d: id %d at %d (count %d, l %d) breaks candidates-then-padding", k, i, id, pos, counts[id], ix.l)
				}
				if prev := res.IDs[max(pos-1, 0)]; pos > reached &&
					(counts[prev] < counts[id] || (counts[prev] == counts[id] && prev > id)) {
					t.Fatalf("k=%d query %d: padding out of (count desc, id asc) order at %d", k, i, pos)
				}
			}
			padded = padded || counts[res.IDs[reached]] != counts[res.IDs[len(res.IDs)-1]]
		}
		if !padded {
			t.Fatalf("k=%d: no query padded with distinct partial counts; the case no longer covers the fallback order", k)
		}
	}
}

// TestCandidatesMatchOracleConcurrent shares one Index between goroutines:
// the pooled per-query scratch must never leak state between queries.
func TestCandidatesMatchOracleConcurrent(t *testing.T) {
	ds := testDS(3000, 24, 3)
	ix := Build(ds, Params{Seed: 4})
	qs := oracleQueries(ds, 64, 22)
	want := make([]Result, len(qs))
	for i, q := range qs {
		want[i], _ = oracleCandidates(ix, q, 10)
	}
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for i := range qs {
					j := (i + w*7) % len(qs)
					if !sameResult(ix.Candidates(qs[j], 10), want[j]) {
						errs <- "concurrent Candidates diverged from the oracle"
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
}
