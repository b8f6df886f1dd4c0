package main

import (
	"fmt"
	"math/rand"
	"sort"

	"exploitbit"
)

// exactKNN is the benchmark's own brute-force kNN over the points live[id]
// (nil entries skipped), ties broken by id.
func exactKNN(live [][]float32, q []float32, k int) []int {
	type cand struct {
		id int
		d  float64
	}
	best := make([]cand, 0, k+1)
	for id, p := range live {
		if p == nil {
			continue
		}
		var d float64
		for j, x := range p {
			t := float64(x) - float64(q[j])
			d += t * t
		}
		if len(best) == k && (d > best[k-1].d || d == best[k-1].d && id > best[k-1].id) {
			continue
		}
		best = append(best, cand{id, d})
		sort.Slice(best, func(a, b int) bool {
			return best[a].d < best[b].d || best[a].d == best[b].d && best[a].id < best[b].id
		})
		if len(best) > k {
			best = best[:k]
		}
	}
	out := make([]int, len(best))
	for i, c := range best {
		out[i] = c.id
	}
	return out
}

// recallOf is |got ∩ truth| / |truth|.
func recallOf(got, truth []int) float64 {
	if len(truth) == 0 {
		return 1
	}
	in := make(map[int]bool, len(got))
	for _, id := range got {
		in[id] = true
	}
	hit := 0
	for _, id := range truth {
		if in[id] {
			hit++
		}
	}
	return float64(hit) / float64(len(truth))
}

// sampleServed draws up to n distinct pool indices, seeded, from the
// searches that were answered.
func sampleServed(ops []*opRec, n int, seed int64) []int {
	seen := map[int]bool{}
	var idx []int
	for _, o := range ops {
		if o.Kind == opSearch && !o.failed() && !seen[o.Arg] {
			seen[o.Arg] = true
			idx = append(idx, o.Arg)
		}
	}
	sort.Ints(idx)
	rng := rand.New(rand.NewSource(subSeed(seed, 6)))
	rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
	if len(idx) > n {
		idx = idx[:n]
	}
	return idx
}

// basePoints returns the dataset as a live-set slice (every id present).
func basePoints(ds *exploitbit.Dataset) [][]float32 {
	out := make([][]float32, ds.Len())
	for i := range out {
		out[i] = ds.Point(i)
	}
	return out
}

// checkAnswers compares every answered /search with a direct in-process
// Engine.Search of the same vector: ids and page_reads must match. Returns
// the number of mismatching answers and a description of the first.
func checkAnswers(eng *exploitbit.Engine, pool [][]float32, ops []*opRec) (int, string, error) {
	type want struct {
		ids   []int
		reads int64
	}
	expect := map[int]want{}
	bad, first := 0, ""
	for _, o := range ops {
		if o.Kind != opSearch || o.failed() {
			continue
		}
		w, ok := expect[o.Arg]
		if !ok {
			ids, st, err := eng.Search(pool[o.Arg], K)
			if err != nil {
				return 0, "", fmt.Errorf("direct search: %w", err)
			}
			w = want{ids, st.PageReads}
			expect[o.Arg] = w
		}
		if !equalInts(w.ids, o.Resp.IDs) || w.reads != o.Resp.Stats.PageReads {
			if bad == 0 {
				first = fmt.Sprintf("pool query %d: http ids %v reads %d, direct ids %v reads %d",
					o.Arg, o.Resp.IDs, o.Resp.Stats.PageReads, w.ids, w.reads)
			}
			bad++
		}
	}
	return bad, first, nil
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkLiveAnswers validates merged searches served beside writes: k
// distinct ids, each an issued identifier, none tombstoned by a delete
// acknowledged before the search was sent.
func (r *runner) checkLiveAnswers(ops []*opRec, maxID int) (int, string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	bad, first := 0, ""
	for _, o := range ops {
		if o.Kind != opSearch || o.failed() {
			continue
		}
		seen := map[int]bool{}
		why := ""
		if len(o.Resp.IDs) != K {
			why = fmt.Sprintf("%d ids, want %d", len(o.Resp.IDs), K)
		}
		for _, id := range o.Resp.IDs {
			switch at, dead := r.deletedAt[id]; {
			case id < 0 || id >= maxID:
				why = fmt.Sprintf("id %d out of range [0,%d)", id, maxID)
			case seen[id]:
				why = fmt.Sprintf("duplicate id %d", id)
			case dead && at.Before(o.SentAt):
				why = fmt.Sprintf("id %d deleted before the search was sent", id)
			}
			seen[id] = true
		}
		if why != "" {
			if bad == 0 {
				first = why
			}
			bad++
		}
	}
	return bad, first
}

// liveSet is the folded live point set the writes left: base points plus
// every acknowledged insert (clamped as stored), minus acknowledged deletes.
func (r *runner) liveSet() [][]float32 {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.in.DS.Len()
	for id := range r.acked {
		if id+1 > n {
			n = id + 1
		}
	}
	live := make([][]float32, n)
	copy(live, basePoints(r.in.DS))
	for id, vi := range r.acked {
		live[id] = clamped(r.in.DS, r.in.Inserts[vi])
	}
	for id := range r.deletedAt {
		if id < n {
			live[id] = nil
		}
	}
	return live
}

// checkRecovery replays the closed system's WAL directory and checks that
// every acknowledged insert is present with its clamped vector and every
// acknowledged delete is a tombstone. Returns the count of violations and
// the first.
func (r *runner) checkRecovery(walDir string) (int, string, error) {
	fold, rec, err := exploitbit.RecoverFold(r.in.DS, walDir)
	if err != nil {
		return 0, "", fmt.Errorf("recover: %w", err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	bad, first := 0, ""
	note := func(s string) {
		if bad == 0 {
			first = s
		}
		bad++
	}
	for id, vi := range r.acked {
		if id >= fold.Len() {
			note(fmt.Sprintf("acknowledged insert %d missing (fold has %d points)", id, fold.Len()))
			continue
		}
		if !equalVec(fold.Point(id), clamped(r.in.DS, r.in.Inserts[vi])) {
			note(fmt.Sprintf("acknowledged insert %d recovered with a different vector", id))
		}
	}
	for id := range r.deletedAt {
		if _, ok := rec.Tombs[int64(id)]; !ok {
			note(fmt.Sprintf("acknowledged delete %d not a tombstone after recovery", id))
		}
	}
	return bad, first, nil
}

func equalVec(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
