package lsh

import (
	"math"
	"math/rand"
	"testing"

	"exploitbit/internal/dataset"
	"exploitbit/internal/vec"
)

func testDS(n, dim int, seed int64) *dataset.Dataset {
	return dataset.Generate(dataset.Config{Name: "t", N: n, Dim: dim, Clusters: 5, Std: 0.05, Seed: seed})
}

func bruteKNN(ds *dataset.Dataset, q []float32, k int) []int {
	top := vec.NewTopK(k)
	for i := 0; i < ds.Len(); i++ {
		top.Push(vec.Dist(q, ds.Point(i)), i)
	}
	ids, _ := top.Results()
	return ids
}

func TestCollisionProb(t *testing.T) {
	// p is a decreasing function of distance with p(0)=1.
	if got := collisionProb(0); got != 1 {
		t.Fatalf("p(0) = %v", got)
	}
	prev := 1.0
	for _, r := range []float64{0.25, 0.5, 1, 2, 4, 8} {
		p := collisionProb(r)
		if p <= 0 || p >= prev {
			t.Fatalf("p(%v) = %v not strictly decreasing below %v", r, p, prev)
		}
		prev = p
	}
	// Known anchor: p(1) ≈ 0.6827 - 2/sqrt(2π)(1-e^{-1/2}) ≈ 0.3695...
	// (exact value of the 2-stable collision probability at s=w).
	if p := collisionProb(1); math.Abs(p-0.3694) > 0.01 {
		t.Fatalf("p(1) = %v, expected ≈ 0.369", p)
	}
}

func TestBuildParameters(t *testing.T) {
	ds := testDS(2000, 16, 1)
	ix := Build(ds, Params{Seed: 2})
	if ix.M() < 8 || ix.M() > 96 {
		t.Fatalf("m = %d outside [8,96]", ix.M())
	}
	if ix.L() < 1 || ix.L() > ix.M() {
		t.Fatalf("l = %d outside [1,%d]", ix.L(), ix.M())
	}
	if ix.W() <= 0 {
		t.Fatalf("w = %v", ix.W())
	}
	// Threshold must sit strictly between p2·m and p1·m for the collision
	// counting to separate near from far points.
	p1, p2 := collisionProb(1), collisionProb(2)
	if f := float64(ix.L()) / float64(ix.M()); f <= p2 || f >= p1 {
		t.Fatalf("alpha = %v not in (p2=%v, p1=%v)", f, p2, p1)
	}
}

func TestCandidatesAreCApproximate(t *testing.T) {
	// C2LSH guarantees c-approximate kNN (here c=2): the k-th best distance
	// reachable within the candidate set must be at most c times the true
	// k-th distance, with high probability. Most true neighbors should also
	// appear directly.
	ds := testDS(3000, 24, 3)
	ix := Build(ds, Params{Seed: 4})
	rng := rand.New(rand.NewSource(5))
	k := 10
	hit, total, ratioOK := 0, 0, 0
	trials := 20
	for trial := 0; trial < trials; trial++ {
		q := ds.Point(rng.Intn(ds.Len()))
		res := ix.Candidates(q, k)
		if len(res.IDs) < k {
			t.Fatalf("trial %d: only %d candidates", trial, len(res.IDs))
		}
		in := make(map[int]bool, len(res.IDs))
		for _, id := range res.IDs {
			in[id] = true
		}
		trueNN := bruteKNN(ds, q, k)
		for _, id := range trueNN {
			total++
			if in[id] {
				hit++
			}
		}
		// k-th best candidate distance vs true k-th distance.
		top := vec.NewTopK(k)
		for _, id := range res.IDs {
			top.Push(vec.Dist(q, ds.Point(id)), id)
		}
		trueKth := vec.Dist(q, ds.Point(trueNN[k-1]))
		if top.Root() <= 2*trueKth+1e-12 {
			ratioOK++
		}
		if res.Radius < 1 || res.Dmax <= 0 {
			t.Fatalf("trial %d: radius %d dmax %v", trial, res.Radius, res.Dmax)
		}
	}
	if recall := float64(hit) / float64(total); recall < 0.75 {
		t.Fatalf("candidate recall %.2f < 0.75", recall)
	}
	// The 2-approximate guarantee holds with probability >= 1-δ = 0.9;
	// require at least 90% of trials to satisfy it.
	if ratioOK < trials*9/10 {
		t.Fatalf("c-approximate guarantee held in only %d/%d trials", ratioOK, trials)
	}
}

func TestCandidateSetSizeRespectsBeta(t *testing.T) {
	ds := testDS(2000, 16, 6)
	ix := Build(ds, Params{Beta: 0.05, Seed: 7})
	res := ix.Candidates(ds.Point(0), 10)
	// Collection stops once k + β·n found; one level's worth of overshoot
	// is possible (candidates arrive in batches per radius).
	if len(res.IDs) < 10 {
		t.Fatalf("too few candidates: %d", len(res.IDs))
	}
	if len(res.IDs) > 2000 {
		t.Fatalf("candidate set exceeds dataset")
	}
}

func TestCandidatesDeterministic(t *testing.T) {
	ds := testDS(1000, 8, 8)
	ix := Build(ds, Params{Seed: 9})
	q := ds.Point(42)
	a := ix.Candidates(q, 5)
	b := ix.Candidates(q, 5)
	if len(a.IDs) != len(b.IDs) || a.Radius != b.Radius {
		t.Fatal("same query produced different results")
	}
	for i := range a.IDs {
		if a.IDs[i] != b.IDs[i] {
			t.Fatal("candidate order differs between runs")
		}
	}
}

func TestCandidatesNoDuplicates(t *testing.T) {
	ds := testDS(1500, 12, 10)
	ix := Build(ds, Params{Seed: 11})
	res := ix.Candidates(ds.Point(3), 10)
	seen := make(map[int]bool)
	for _, id := range res.IDs {
		if seen[id] {
			t.Fatalf("duplicate candidate %d", id)
		}
		seen[id] = true
		if id < 0 || id >= ds.Len() {
			t.Fatalf("candidate %d out of range", id)
		}
	}
}

func TestFallbackOnTinyDataset(t *testing.T) {
	ds := testDS(20, 4, 12)
	ix := Build(ds, Params{Seed: 13})
	res := ix.Candidates(ds.Point(0), 15)
	if len(res.IDs) < 15 {
		t.Fatalf("fallback did not pad: %d candidates", len(res.IDs))
	}
}

func TestQueryDimMismatchPanics(t *testing.T) {
	ds := testDS(100, 4, 14)
	ix := Build(ds, Params{Seed: 15})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ix.Candidates([]float32{1, 2}, 1)
}

func TestFloorDiv(t *testing.T) {
	cases := []struct{ a, b, want int64 }{
		{7, 2, 3}, {-7, 2, -4}, {-4, 2, -2}, {0, 5, 0}, {4, 4, 1}, {-1, 4, -1},
	}
	for _, c := range cases {
		if got := floorDiv(c.a, c.b); got != c.want {
			t.Errorf("floorDiv(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestVirtualRehashingWindowsGrow(t *testing.T) {
	// Radius growth must be geometric in C and candidates monotone: querying
	// with larger k cannot shrink the discovered radius.
	ds := testDS(2000, 16, 16)
	ix := Build(ds, Params{Seed: 17})
	q := ds.Point(1)
	small := ix.Candidates(q, 1)
	large := ix.Candidates(q, 50)
	if large.Radius < small.Radius {
		t.Fatalf("radius shrank with larger k: %d vs %d", large.Radius, small.Radius)
	}
	// Radii are powers of C (=2).
	for _, r := range []int{small.Radius, large.Radius} {
		if r&(r-1) != 0 {
			t.Fatalf("radius %d is not a power of 2", r)
		}
	}
}

// TestCandidatesAllocatesOnlyResult pins Phase 1's allocation budget: with
// the pooled scratch warm, a query allocates just its returned IDs slice.
func TestCandidatesAllocatesOnlyResult(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race")
	}
	ds := testDS(2000, 16, 18)
	ix := Build(ds, Params{Seed: 19})
	q := ds.Point(7)
	allocs := testing.AllocsPerRun(100, func() {
		ix.Candidates(q, 10)
	})
	if allocs > 1 {
		t.Fatalf("Candidates allocated %v/op, want at most 1", allocs)
	}
}

// TestBuildCapsHashCount checks the 16-bit counter limit: MaxM above 65535
// is lowered to 65535. The Chernoff setting asks for ~46k functions at
// β = δ = 1e-300 and stays below the cap for any β, δ whose 2/β and 1/δ are
// finite, so the cap bounds it without binding; counting at that m must
// still agree with the frozen oracle.
func TestBuildCapsHashCount(t *testing.T) {
	ds := testDS(40, 4, 20)
	ix := Build(ds, Params{Beta: 1e-300, Delta: 1e-300, MaxM: 1 << 20, Seed: 21})
	if ix.params.MaxM != maxM || maxM != 65535 {
		t.Fatalf("MaxM = %d, want 65535", ix.params.MaxM)
	}
	if ix.M() > maxM || ix.M() < 40000 {
		t.Fatalf("m = %d, want the uncapped Chernoff value in [40000, 65535]", ix.M())
	}
	compared := 0
	for i := 0; i < 5; i++ {
		q := ds.Point(i)
		got := ix.Candidates(q, 10)
		if want, _, ok := tryOracle(ix, q, 10); ok {
			if !sameResult(got, want) {
				t.Fatalf("query %d: result differs from the oracle at m=%d", i, ix.M())
			}
			compared++
		}
		if msg := wellFormed(ix, got, 10); msg != "" {
			t.Fatalf("query %d: %s", i, msg)
		}
	}
	if compared == 0 {
		t.Fatal("the oracle overflowed on every query; nothing compared")
	}
}
