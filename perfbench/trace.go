package main

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"

	"exploitbit/internal/core"
)

// layer names a span's layer. The enum order is the nesting order: each
// layer's parent is the one before it.
type layer uint8

const (
	lClient  layer = iota // the benchmark's HTTP client request
	lHandler              // http.Handler middleware around ServeHTTP
	lCore                 // the server.Searcher / server.Ingestor adapter call
	lLSH                  // the timed CandidateFunc (Phase 1)
	nLayers
)

var layerNames = [nLayers]string{"client", "http.handler", "core", "lsh"}

func (l layer) String() string { return layerNames[l] }

// span is one timed call. Spans of one request share Req; times are
// nanoseconds since the tracer's epoch on the monotonic clock.
type span struct {
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	layer  layer
	st     *core.QueryStats // engine-reported stats, core search spans only
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	// reqOfQuery maps a query vector's backing array to its request, so the
	// CandidateFunc — which receives the vector but no context — can tag
	// its span. The engine passes the decoded request vector through
	// unchanged.
	reqOfQuery sync.Map
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) record(req int64, l layer, start, end int64, st *core.QueryStats) {
	s := span{Req: req, Name: l.String(), Start: start, End: end, layer: l, st: st}
	if l > 0 {
		s.Parent = (l - 1).String()
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// reset drops every span recorded so far.
func (t *tracer) reset() {
	t.mu.Lock()
	t.spans = t.spans[:0]
	t.mu.Unlock()
}

// writeFile dumps the spans as JSON lines.
func (t *tracer) writeFile(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

type reqKey struct{}

// reqHeader carries the client's request id to the handler middleware.
const reqHeader = "X-Perfbench-Req"

// middleware spans ServeHTTP and hands the request id down through the
// request context.
func (t *tracer) middleware(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.ParseInt(r.Header.Get(reqHeader), 10, 64)
		if err != nil {
			h.ServeHTTP(w, r)
			return
		}
		start := t.now()
		h.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), reqKey{}, id)))
		t.record(id, lHandler, start, t.now(), nil)
	})
}

func reqOf(ctx context.Context) (int64, bool) {
	id, ok := ctx.Value(reqKey{}).(int64)
	return id, ok
}

// timedCandidates wraps a CandidateFunc in an lsh span.
func (t *tracer) timedCandidates(cands core.CandidateFunc) core.CandidateFunc {
	return func(q []float32, k int) ([]int, float64) {
		v, tagged := t.reqOfQuery.Load(&q[0])
		start := t.now()
		ids, dmax := cands(q, k)
		if tagged {
			t.record(v.(int64), lLSH, start, t.now(), nil)
		}
		return ids, dmax
	}
}

// coverage is the length of the union of the intervals, clipped to
// [lo, hi].
func coverage(lo, hi int64, ivs [][2]int64) int64 {
	c := make([][2]int64, 0, len(ivs))
	for _, iv := range ivs {
		if iv[0] < lo {
			iv[0] = lo
		}
		if iv[1] > hi {
			iv[1] = hi
		}
		if iv[1] > iv[0] {
			c = append(c, iv)
		}
	}
	sort.Slice(c, func(i, j int) bool { return c[i][0] < c[j][0] })
	var total, curLo, curHi int64
	for i, iv := range c {
		if i == 0 || iv[0] > curHi {
			total += curHi - curLo
			curLo, curHi = iv[0], iv[1]
		} else if iv[1] > curHi {
			curHi = iv[1]
		}
	}
	if len(c) > 0 {
		total += curHi - curLo
	}
	return total
}

// selfTime is a span's duration minus the part of its interval covered by
// its children.
func selfTime(parent span, children []span) int64 {
	ivs := make([][2]int64, len(children))
	for i, c := range children {
		ivs[i] = [2]int64{c.Start, c.End}
	}
	return parent.dur() - coverage(parent.Start, parent.End, ivs)
}

// reqTrace is one request's spans, at most one per layer.
type reqTrace struct {
	has   [nLayers]bool
	spans [nLayers]span
}

// nested reports whether each present span lies inside its parent's
// interval and no layer is skipped.
func (r *reqTrace) nested() bool {
	for l := lHandler; l < nLayers; l++ {
		if !r.has[l] {
			continue
		}
		if !r.has[l-1] {
			return false
		}
		p, c := r.spans[l-1], r.spans[l]
		if c.Start < p.Start || c.End > p.End {
			return false
		}
	}
	return r.has[lClient]
}

// selfTimes returns each layer's self time (0 for absent layers).
func (r *reqTrace) selfTimes() [nLayers]int64 {
	var out [nLayers]int64
	for l := lClient; l < nLayers; l++ {
		if !r.has[l] {
			continue
		}
		var kids []span
		if l+1 < nLayers && r.has[l+1] {
			kids = append(kids, r.spans[l+1])
		}
		out[l] = selfTime(r.spans[l], kids)
	}
	return out
}

// byRequest groups the recorded spans per request id.
func (t *tracer) byRequest() map[int64]*reqTrace {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[int64]*reqTrace)
	for _, s := range t.spans {
		r := out[s.Req]
		if r == nil {
			r = &reqTrace{}
			out[s.Req] = r
		}
		r.has[s.layer] = true
		r.spans[s.layer] = s
	}
	return out
}
