package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"
)

func TestGenInputsSeeded(t *testing.T) {
	for _, name := range []string{"hot-read", "read-write"} {
		w, err := workloadByName(name)
		if err != nil {
			t.Fatal(err)
		}
		a, b := genInputs(w, 7, 1000, 50), genInputs(w, 7, 1000, 50)
		if !reflect.DeepEqual(a.Seq, b.Seq) || !reflect.DeepEqual(a.Pool, b.Pool) ||
			!reflect.DeepEqual(a.Profile, b.Profile) || !reflect.DeepEqual(a.Inserts, b.Inserts) ||
			!reflect.DeepEqual(a.DS.Data(), b.DS.Data()) {
			t.Fatalf("%s: the same seed generated different inputs", name)
		}
		c := genInputs(w, 8, 1000, 50)
		if reflect.DeepEqual(a.Seq, c.Seq) {
			t.Fatalf("%s: seeds 7 and 8 served the same query stream", name)
		}
		if w.Live && reflect.DeepEqual(a.Inserts, c.Inserts) {
			t.Fatalf("%s: seeds 7 and 8 inserted the same vectors", name)
		}

		ra, rb := newRunner(w, a, nil, 1, 7), newRunner(w, b, nil, 1, 7)
		sa, ia := ra.schedule(w.SearchRate, w.InsertRate, time.Second)
		sb, ib := rb.schedule(w.SearchRate, w.InsertRate, time.Second)
		if ia != ib || !reflect.DeepEqual(sa, sb) {
			t.Fatalf("%s: the same seed scheduled different operations", name)
		}
	}
}

func TestNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {99, 99}, {99.5, 100}, {1, 1}, {0.1, 1}, {100, 100}} {
		if got := nearestRank(xs, c.p); got != c.want {
			t.Errorf("p%g of 1..100 = %g, want %g", c.p, got, c.want)
		}
	}
	if got := nearestRank([]float64{7}, 99); got != 7 {
		t.Errorf("p99 of one sample = %g", got)
	}
}

func TestTailSlot(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{10000, 99.9, true}, // 10 beyond rank 9990
		{9999, 99.5, true},  // rank 9990 leaves 9 beyond p99.9
		{1000, 99, true},    // exactly 10 beyond rank 990
		{999, 98, true},     // rank 990 leaves 9
		{20, 50, true},      // rank 10 leaves 10
		{19, 50, false},
	} {
		p, ok := tailSlot(c.n)
		if p != c.want || ok != c.ok {
			t.Errorf("tailSlot(%d) = p%g %v, want p%g %v", c.n, p, ok, c.want, c.ok)
		}
		if ok && c.n-rankOf(c.n, p) < minBeyond {
			t.Errorf("tailSlot(%d) = p%g has fewer than %d beyond", c.n, p, minBeyond)
		}
	}
	d := summarize([]float64{5, 1, 4, 2, 3})
	if d.P50 != 3 || d.N != 5 || d.TailP != 50 || d.Tail != 3 {
		t.Errorf("summarize = %+v", d)
	}
}

// A stalled first request must inflate the latency of every request
// queued behind it: latency runs from the due time, not the send time.
func TestOpenLoopTimesFromDue(t *testing.T) {
	const stall = 60 * time.Millisecond
	const interval = 2 * time.Millisecond
	ss := openLoop(20, interval, 1, 0, func(w, i int) bool {
		if i == 0 {
			time.Sleep(stall)
		}
		return true
	})
	for i, s := range ss {
		if !s.Sent || !s.OK {
			t.Fatalf("op %d not sent", i)
		}
		if s.Due != time.Duration(i)*interval {
			t.Fatalf("op %d due %v", i, s.Due)
		}
		// Op i could not start before the stall ended.
		if want := stall - s.Due; s.Latency() < want {
			t.Errorf("op %d latency %v, want at least %v (queued behind the stall)", i, s.Latency(), want)
		}
		if i > 0 && s.Lag() < stall-s.Due {
			t.Errorf("op %d lag %v, want at least %v", i, s.Lag(), stall-s.Due)
		}
	}
	if ss[1].Backlog < 10 {
		t.Errorf("backlog behind the stall = %d, want the queued ops counted", ss[1].Backlog)
	}
}

func TestOpenLoopStopsFarBehind(t *testing.T) {
	ss := openLoop(100, time.Millisecond, 1, 5*time.Millisecond, func(w, i int) bool {
		time.Sleep(3 * time.Millisecond)
		return true
	})
	sent := 0
	for _, s := range ss {
		if s.Sent {
			sent++
		}
	}
	if sent == 0 || sent == 100 {
		t.Fatalf("sent %d of 100; want the run cut short once 5ms behind", sent)
	}
}

func TestSelfTime(t *testing.T) {
	parent := span{Start: 0, End: 100}
	for _, c := range []struct {
		kids []span
		want int64
	}{
		{nil, 100},
		{[]span{{Start: 10, End: 30}}, 80},
		{[]span{{Start: 10, End: 30}, {Start: 20, End: 50}}, 60},   // overlap counted once
		{[]span{{Start: 10, End: 30}, {Start: 40, End: 50}}, 70},   // disjoint
		{[]span{{Start: -10, End: 20}, {Start: 90, End: 120}}, 70}, // clipped to the parent
		{[]span{{Start: 0, End: 100}}, 0},
	} {
		if got := selfTime(parent, c.kids); got != c.want {
			t.Errorf("selfTime(%v) = %d, want %d", c.kids, got, c.want)
		}
	}

	var r reqTrace
	for l, iv := range [][2]int64{{0, 100}, {10, 90}, {20, 80}, {30, 40}} {
		r.has[l], r.spans[l] = true, span{Start: iv[0], End: iv[1], layer: layer(l)}
	}
	if !r.nested() {
		t.Fatal("nested spans reported as not nested")
	}
	self := r.selfTimes()
	var sum int64
	for _, x := range self {
		sum += x
	}
	if want := [nLayers]int64{20, 20, 50, 10}; self != want || sum != r.spans[lClient].dur() {
		t.Fatalf("self times %v (sum %d), want %v summing to the client span", self, sum, want)
	}
	r.spans[lLSH] = span{Start: 30, End: 85, layer: lLSH}
	if r.nested() {
		t.Fatal("an lsh span ending after its core span reported as nested")
	}
}

func TestLadderRejectsGrowingBacklog(t *testing.T) {
	flat := make([]sample, 400)
	growing := make([]sample, 400)
	for i := range flat {
		flat[i] = sample{Sent: true, Backlog: 1 + i%3}
		growing[i] = sample{Sent: true, Backlog: 1 + i/20}
	}
	if backlogGrows(flat, backlogSlack(100)) {
		t.Fatal("a flat backlog reported as growing")
	}
	if !backlogGrows(growing, backlogSlack(100)) {
		t.Fatal("a growing backlog not detected")
	}
	limit := 25 * time.Millisecond
	ok := stepVerdict{Tail: dist{N: 400, Tail: 5}}
	if !ok.ok(limit) {
		t.Fatal("a fast, flat, clean step rejected")
	}
	grows := ok
	grows.Grows = true
	if grows.ok(limit) {
		t.Fatal("the ladder accepted a step whose backlog grows")
	}
	for _, bad := range []stepVerdict{
		{Tail: dist{N: 400, Tail: 30}},
		{Tail: dist{N: 400, Tail: 5}, Failed: 1},
		{Tail: dist{N: 400, Tail: 5}, Aborted: true},
	} {
		if bad.ok(limit) {
			t.Fatalf("the ladder accepted %+v", bad)
		}
	}
}

func TestClimbFindsCapacity(t *testing.T) {
	limit := 25 * time.Millisecond
	for _, capRung := range []int{0, 3, 17, 30, ladderRungs - 1} {
		for _, start := range []int{0, 10, 29, 40} {
			probes := 0
			best, log := climb(start, func(rung int) stepVerdict {
				probes++
				v := stepVerdict{Rung: rung, Tail: dist{N: 1000, Tail: 5}}
				v.Grows = rung > capRung
				return v
			}, limit, func() bool { return false })
			if best != capRung {
				t.Errorf("capacity rung %d from start %d: climb = %d (%d probes)", capRung, start, best, len(log))
			}
			if probes > 20 {
				t.Errorf("capacity rung %d from start %d took %d probes", capRung, start, probes)
			}
		}
	}
	best, _ := climb(5, func(rung int) stepVerdict { return stepVerdict{Rung: rung, Failed: 1} }, limit, func() bool { return false })
	if best != -1 {
		t.Fatalf("climb over an always-failing ladder = %d, want -1", best)
	}
}

// BENCHMARK.json and the metric lists the program prints must agree.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not present:", err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name+": "+w.Why)
	}
	var specNames []string
	for _, w := range spec.Workloads {
		specNames = append(specNames, w.Name+": "+w.Why)
	}
	if !reflect.DeepEqual(names, specNames) {
		t.Errorf("workloads %v, BENCHMARK.json %v", names, specNames)
	}
	check := func(what string, got []metricDef, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics, BENCHMARK.json %d", what, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s[%d] = %v, BENCHMARK.json %v", what, i, got[i], want[i])
			}
		}
	}
	check("end_to_end", endToEnd, spec.EndToEnd)
	check("per_layer", perLayer, spec.PerLayer)
}
