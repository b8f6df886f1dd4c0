// Package lsh implements C2LSH (Gan, Feng, Fang, Ng — SIGMOD 2012), the
// state-of-the-art disk-based LSH method the paper uses as its candidate
// generation index I. C2LSH hashes points with 2-stable (Gaussian)
// projections, then answers a c-approximate kNN query by dynamic collision
// counting: a point becomes a candidate once it collides with the query in
// at least l of the m hash functions at the current search radius, and the
// radius grows geometrically via virtual rehashing (bucket coalescing) until
// enough candidates are found.
//
// The index structure (hash tables of point identifiers) lives in memory;
// candidate points themselves are fetched from the dataset file only during
// refinement, which is precisely the phase the paper's cache attacks.
package lsh

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"

	"exploitbit/internal/dataset"
	"exploitbit/internal/vec"
)

// Params configures the index. Zero values select the defaults documented
// on each field.
type Params struct {
	// C is the approximation ratio (integer >= 2; default 2). The virtual
	// rehashing radius sequence is 1, C, C², …
	C int
	// Delta is the error probability δ (default 0.1).
	Delta float64
	// Beta is the allowed false-positive fraction β: candidate collection
	// stops once k + β·n candidates are found (default 100/n, per C2LSH).
	Beta float64
	// W is the projection quantization width w. Default: auto-tuned to the
	// mean nearest-neighbor distance of a data sample, so that radius R=1
	// roughly covers nearest neighbors.
	W float64
	// MaxM caps the number of hash functions (default 96, at most 65535:
	// larger values are lowered to 65535 so that a point's collision count
	// fits the 16-bit query counters). The Chernoff bound of C2LSH may ask
	// for more on easy parameter settings; capping trades a little result
	// quality for index size, which the paper's relative comparisons are
	// insensitive to.
	MaxM int
	// Seed drives projection sampling.
	Seed int64
}

func (p Params) withDefaults(n int) Params {
	if p.C < 2 {
		p.C = 2
	}
	if p.Delta <= 0 || p.Delta >= 1 {
		p.Delta = 0.1
	}
	if p.Beta <= 0 {
		p.Beta = 100 / float64(n)
	}
	if p.MaxM <= 0 {
		p.MaxM = 96
	}
	if p.MaxM > maxM {
		p.MaxM = maxM
	}
	return p
}

// maxM is the largest hash-function count: collision counts are uint16.
const maxM = math.MaxUint16

// Index is a built C2LSH index.
type Index struct {
	params Params
	n, dim int
	m, l   int // hash count and collision threshold α·m
	w      float64

	proj []float64 // m×dim projection vectors
	bias []float64 // m offsets in [0, w)

	// Per hash function: point hash values sorted ascending, with ids.
	vals [][]int64
	ids  [][]int32

	// Per-query scratch, pooled so concurrent queries never share state.
	scratch sync.Pool
}

// queryScratch is one query's collision-counting state: one counter per
// point, cleared at query start (O(n), small next to the ~0.15·n·m
// increments of a query), plus the query's hash value and counted window
// per hash function. A point is counted at most once per hash function, so
// its count never exceeds m ≤ maxM and fits a uint16.
type queryScratch struct {
	counts []uint16
	qv     []int64
	lo, hi []int
}

// collisionProb is the 2-stable LSH collision probability p(r) for two
// points at distance s = r·w (Datar et al. 2004):
//
//	p(r) = 1 − 2Φ(−1/r) − (2r/√(2π)) (1 − e^{−1/(2r²)})
func collisionProb(r float64) float64 {
	if r <= 0 {
		return 1
	}
	return 1 - 2*normCDF(-1/r) - (2*r/math.Sqrt(2*math.Pi))*(1-math.Exp(-1/(2*r*r)))
}

func normCDF(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}

// Build constructs the index over ds.
func Build(ds *dataset.Dataset, p Params) *Index {
	n, dim := ds.Len(), ds.Dim
	p = p.withDefaults(n)
	rng := rand.New(rand.NewSource(p.Seed))

	w := p.W
	if w <= 0 {
		w = meanNNDistance(ds, rng)
	}

	// C2LSH parameter setting: with p1 = p(1), p2 = p(c),
	//   m = ⌈(√ln(2/β) + √ln(1/δ))² / (2(p1−p2)²)⌉,
	//   α = (√ln(2/β)·p1 + √ln(1/δ)·p2) / (√ln(2/β) + √ln(1/δ)).
	p1 := collisionProb(1)
	p2 := collisionProb(float64(p.C))
	zb := math.Sqrt(math.Log(2 / p.Beta))
	zd := math.Sqrt(math.Log(1 / p.Delta))
	m := int(math.Ceil((zb + zd) * (zb + zd) / (2 * (p1 - p2) * (p1 - p2))))
	if m < 8 {
		m = 8
	}
	if m > p.MaxM {
		m = p.MaxM
	}
	alpha := (zb*p1 + zd*p2) / (zb + zd)
	l := int(math.Ceil(alpha * float64(m)))
	if l < 1 {
		l = 1
	}
	if l > m {
		l = m
	}

	ix := &Index{
		params: p, n: n, dim: dim, m: m, l: l, w: w,
		proj: make([]float64, m*dim),
		bias: make([]float64, m),
		vals: make([][]int64, m),
		ids:  make([][]int32, m),
	}
	ix.scratch.New = func() any {
		return &queryScratch{
			counts: make([]uint16, n),
			qv:     make([]int64, m),
			lo:     make([]int, m),
			hi:     make([]int, m),
		}
	}
	for i := range ix.proj {
		ix.proj[i] = rng.NormFloat64()
	}
	for i := range ix.bias {
		ix.bias[i] = rng.Float64() * w
	}

	// Hash every point under every function; sort per function.
	type vi struct {
		v  int64
		id int32
	}
	buf := make([]vi, n)
	for h := 0; h < m; h++ {
		a := ix.proj[h*dim : (h+1)*dim]
		for i := 0; i < n; i++ {
			buf[i] = vi{v: ix.hashWith(a, ix.bias[h], ds.Point(i)), id: int32(i)}
		}
		sort.Slice(buf, func(x, y int) bool { return buf[x].v < buf[y].v })
		vs := make([]int64, n)
		is := make([]int32, n)
		for i, e := range buf {
			vs[i], is[i] = e.v, e.id
		}
		ix.vals[h], ix.ids[h] = vs, is
	}
	return ix
}

func meanNNDistance(ds *dataset.Dataset, rng *rand.Rand) float64 {
	sample := 64
	if ds.Len() < sample {
		sample = ds.Len()
	}
	pool := 256
	if ds.Len() < pool {
		pool = ds.Len()
	}
	var sum float64
	cnt := 0
	for s := 0; s < sample; s++ {
		i := rng.Intn(ds.Len())
		best := math.Inf(1)
		for t := 0; t < pool; t++ {
			j := rng.Intn(ds.Len())
			if i == j {
				continue
			}
			if d := vec.Dist(ds.Point(i), ds.Point(j)); d < best {
				best = d
			}
		}
		if !math.IsInf(best, 1) {
			sum += best
			cnt++
		}
	}
	if cnt == 0 || sum == 0 {
		return 1
	}
	return sum / float64(cnt)
}

func (ix *Index) hashWith(a []float64, b float64, p []float32) int64 {
	var dot float64
	for j, v := range p {
		dot += a[j] * float64(v)
	}
	return int64(math.Floor((dot + b) / ix.w))
}

// M returns the number of hash functions in use.
func (ix *Index) M() int { return ix.m }

// L returns the collision-count threshold l = α·m.
func (ix *Index) L() int { return ix.l }

// W returns the projection quantization width.
func (ix *Index) W() float64 { return ix.w }

// SortedKeyOrdering returns the SK-LSH-style physical ordering of the
// dataset file (the "SortedKey" layout of the paper's Figure 9 experiment):
// points arranged by their compound hash key, here the first hash function's
// value, so that LSH-similar points land on nearby pages. The returned
// permutation maps point id → file slot (disk.BuildPointFile's format).
func (ix *Index) SortedKeyOrdering() []int {
	perm := make([]int, ix.n)
	for slot, id := range ix.ids[0] {
		perm[id] = slot
	}
	return perm
}

// Result of candidate generation for one query.
type Result struct {
	IDs    []int   // candidate identifiers, in discovery order
	Radius int     // final virtual-rehashing radius R
	Dmax   float64 // c·R·w, the (R,c)-guarantee distance bound of Theorem 3
}

// Candidates runs C2LSH candidate generation (Phase 1 of Algorithm 1) for
// query q: collision counting with virtual rehashing until k + β·n
// candidates are found or no window can gain another point.
// Safe for concurrent use: counting state is pooled per query. The returned
// IDs slice is the only allocation of a query that does not fall back.
func (ix *Index) Candidates(q []float32, k int) Result {
	if len(q) != ix.dim {
		panic(fmt.Sprintf("lsh: query dim %d != index dim %d", len(q), ix.dim))
	}
	sc := ix.scratch.Get().(*queryScratch)
	defer ix.scratch.Put(sc)
	counts, qv, lo, hi := sc.counts, sc.qv, sc.lo, sc.hi
	clear(counts)

	required := k + int(math.Ceil(ix.params.Beta*float64(ix.n)))
	if required > ix.n {
		required = ix.n
	}

	// Window state per hash function: [lo, hi) index range currently
	// counted, empty at start at the position of the R=1 window.
	for h := range qv {
		qv[h] = ix.hashWith(ix.proj[h*ix.dim:(h+1)*ix.dim], ix.bias[h], q)
		lo[h], _ = slices.BinarySearch(ix.vals[h], qv[h])
		hi[h] = lo[h]
	}

	cands := make([]int, 0, max(required, 0))
	l := uint16(ix.l)
	R := int64(1)
	// A point becomes a candidate the moment its count reaches l. Terminating
	// condition T1 of C2LSH: once k + β·n candidates have been collected the
	// query stops, so later threshold-crossers are not admitted even within
	// the same virtual-rehashing level. This keeps |C(q)| at the scale the
	// paper reports (hundreds) instead of ballooning on coarse radius
	// doublings over small datasets. The query returns right there: nothing
	// counted after T1 could change the result.
	for {
		exhausted := true
		for h := range qv {
			// Bucket window of q at radius R in hash-value space.
			wlo := floorDiv(qv[h], R) * R
			whi := wlo + R
			vs, ids := ix.vals[h], ix.ids[h]
			// The window's new bounds, then its new points: lo downward
			// first, then hi upward, as discovery order requires.
			i := searchDown(vs, lo[h], wlo)
			for x := lo[h] - 1; x >= i; x-- {
				id := ids[x]
				cnt := counts[id] + 1
				counts[id] = cnt
				if cnt == l && len(cands) < required {
					cands = append(cands, int(id))
					if len(cands) == required && required >= k {
						return ix.result(cands, R)
					}
				}
			}
			lo[h] = i
			j := searchUp(vs, hi[h], whi)
			for _, id := range ids[hi[h]:j] {
				cnt := counts[id] + 1
				counts[id] = cnt
				if cnt == l && len(cands) < required {
					cands = append(cands, int(id))
					if len(cands) == required && required >= k {
						return ix.result(cands, R)
					}
				}
			}
			hi[h] = j
			// Windows are aligned buckets of width R, so one never crosses
			// zero: a query hashed at or above zero never reaches negative
			// values, one hashed below zero never reaches the rest. The
			// query is exhausted once no window can gain another point.
			if (i > 0 && (qv[h] < 0 || vs[i-1] >= 0)) || (j < len(vs) && (qv[h] >= 0 || vs[j] < 0)) {
				exhausted = false
			}
		}
		if len(cands) >= required || exhausted {
			if len(cands) >= k || exhausted {
				if len(cands) < k {
					cands = ix.fallback(cands, counts, k)
				}
				return ix.result(cands, R)
			}
		}
		R *= int64(ix.params.C)
	}
}

// result packages a query's candidates found at radius R.
func (ix *Index) result(cands []int, R int64) Result {
	return Result{IDs: cands, Radius: int(R), Dmax: float64(ix.params.C) * float64(R) * ix.w}
}

// fallback pads the candidate set up to k ids when collision counting alone
// cannot reach k (tiny datasets, queries on the far side of zero from the
// data under most hash functions, extreme parameters): points
// with the highest partial collision counts first, then the rest by id.
// It runs only on an exhausted query holding fewer than k candidates, where
// T1 never cut anything, so the candidates are exactly the points whose
// count reached l.
func (ix *Index) fallback(cands []int, counts []uint16, k int) []int {
	type pc struct {
		id int
		c  uint16
	}
	l := uint16(ix.l)
	rest := make([]pc, 0, ix.n-len(cands))
	for id, cnt := range counts {
		if cnt < l {
			rest = append(rest, pc{id, cnt})
		}
	}
	slices.SortFunc(rest, func(a, b pc) int {
		if a.c != b.c {
			return cmp.Compare(b.c, a.c)
		}
		return cmp.Compare(a.id, b.id)
	})
	for _, e := range rest[:min(k-len(cands), len(rest))] {
		cands = append(cands, e.id)
	}
	return cands
}

// searchDown returns the first index i ≤ from such that vs[i:from] ≥ x,
// galloping down from from so the probes stay near the window's edge.
func searchDown(vs []int64, from int, x int64) int {
	hi, step := from, 1
	for {
		p := hi - step
		if p < 0 || vs[p] < x {
			lo := max(p+1, 0)
			i, _ := slices.BinarySearch(vs[lo:hi], x)
			return lo + i
		}
		hi, step = p, step*2
	}
}

// searchUp returns the first index j ≥ from with vs[j] ≥ x (len(vs) if
// none), galloping up from from.
func searchUp(vs []int64, from int, x int64) int {
	lo, step := from, 1
	for {
		p := lo + step - 1
		if p >= len(vs) || vs[p] >= x {
			j, _ := slices.BinarySearch(vs[lo:min(p+1, len(vs))], x)
			return lo + j
		}
		lo, step = p+1, step*2
	}
}

func floorDiv(a, b int64) int64 {
	q := a / b
	if (a%b != 0) && ((a < 0) != (b < 0)) {
		q--
	}
	return q
}
