package main

import (
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

type opKind uint8

const (
	opSearch opKind = iota
	opInsert
	opDelete
)

// K is the k of every served /search.
const K = 10

// opRec is one operation's request and outcome.
type opRec struct {
	Kind   opKind
	Arg    int   // search: pool index; insert: insert-vector index; delete: target id
	Req    int64 // trace id (0 when untraced)
	SentAt time.Time
	Status int
	Err    error
	Resp   wireResp
}

// failed reports an operation that did not succeed: transport errors,
// refusals (503 shed), client errors and server errors alike.
func (o *opRec) failed() bool { return o.Err != nil || o.Status != http.StatusOK }

// phaseResult is one open-loop phase.
type phaseResult struct {
	ops     []opRec
	samples []sample
	start   time.Time
	aborted bool // the generator stopped early, far behind schedule
}

// latencies returns the due-to-response latency (ms) of every sent op of
// kind k.
func (p *phaseResult) latencies(k opKind) []float64 {
	var out []float64
	for i, s := range p.samples {
		if s.Sent && p.ops[i].Kind == k {
			out = append(out, ms(s.Latency()))
		}
	}
	return out
}

// runner drives one system with the open-loop generator and keeps every
// operation for the correctness checks.
type runner struct {
	w      workload
	in     *inputs
	cl     *client
	conns  int
	t      *tracer // nil: untraced
	rng    *rand.Rand
	bodies [][]byte // per pool index

	searchCursor int
	insertCursor int
	nextReq      atomic.Int64

	mu        sync.Mutex
	acked     map[int]int       // acknowledged insert: point id → insert-vector index
	ackedLive []int             // acknowledged inserts not yet deleted
	deletedAt map[int]time.Time // acknowledged delete: point id → ack time
	deleteSeq int
	phases    []*phaseResult
	extra     []*opRec // operations sent outside the generator (check queries)
	mon       *liveMonitor
}

func newRunner(w workload, in *inputs, cl *client, conns int, seed int64) *runner {
	r := &runner{
		w: w, in: in, cl: cl, conns: conns,
		rng:       rand.New(rand.NewSource(subSeed(seed, 5))),
		acked:     map[int]int{},
		deletedAt: map[int]time.Time{},
	}
	r.bodies = make([][]byte, len(in.Pool))
	for i, q := range in.Pool {
		r.bodies[i] = searchBody(q, K)
	}
	return r
}

// schedule lays out dur seconds of operations at the given rates, evenly
// spaced, with kinds drawn from the seeded stream in proportion to their
// rates. Deletes ride at one per eight inserts.
func (r *runner) schedule(searchRate, insertRate float64, dur time.Duration) ([]opRec, time.Duration) {
	deleteRate := insertRate / 8
	total := searchRate + insertRate + deleteRate
	n := int(total * dur.Seconds())
	if n < 1 {
		n = 1
	}
	ops := make([]opRec, n)
	for i := range ops {
		x := r.rng.Float64() * total
		switch {
		case x < searchRate:
			ops[i] = opRec{Kind: opSearch, Arg: r.in.Seq[r.searchCursor%len(r.in.Seq)]}
			r.searchCursor++
		case x < searchRate+insertRate:
			ops[i] = opRec{Kind: opInsert, Arg: r.insertCursor % len(r.in.Inserts)}
			r.insertCursor++
		default:
			ops[i] = opRec{Kind: opDelete}
		}
	}
	return ops, time.Duration(float64(time.Second) / total)
}

// run executes one open-loop phase.
func (r *runner) run(searchRate, insertRate float64, dur, maxLag time.Duration) *phaseResult {
	ops, interval := r.schedule(searchRate, insertRate, dur)
	p := &phaseResult{ops: ops, start: time.Now()}
	p.samples = openLoop(len(ops), interval, r.conns, maxLag, func(w, i int) bool {
		o := &ops[i]
		r.send(w, o)
		return !o.failed()
	})
	for _, s := range p.samples {
		if !s.Sent {
			p.aborted = true
		}
	}
	r.mu.Lock()
	r.phases = append(r.phases, p)
	r.mu.Unlock()
	return p
}

// send performs one operation on connection w, spanning it when traced.
func (r *runner) send(w int, o *opRec) {
	var body []byte
	path := "/search"
	switch o.Kind {
	case opSearch:
		body = r.bodies[o.Arg]
	case opInsert:
		path = "/insert"
		body = insertBody(r.in.Inserts[o.Arg])
	case opDelete:
		path = "/delete"
		o.Arg = r.deleteTarget()
		body = []byte(`{"id":` + strconv.Itoa(o.Arg) + `}`)
	}
	var start int64
	if r.t != nil {
		o.Req = r.nextReq.Add(1)
		start = r.t.now()
	}
	o.SentAt = time.Now()
	o.Status, o.Resp, o.Err = r.cl.post(w, path, body, o.Req)
	if r.t != nil {
		r.t.record(o.Req, lClient, start, r.t.now(), nil)
	}
	if o.failed() {
		return
	}
	switch o.Kind {
	case opInsert:
		r.mu.Lock()
		r.acked[o.Resp.ID] = o.Arg
		r.ackedLive = append(r.ackedLive, o.Resp.ID)
		r.mu.Unlock()
	case opDelete:
		r.mu.Lock()
		r.deletedAt[o.Arg] = time.Now()
		r.mu.Unlock()
	}
}

// deleteTarget picks an acknowledged, not yet deleted insert; before the
// first insert is acknowledged it falls back to a base point.
func (r *runner) deleteTarget() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.deleteSeq++
	if len(r.ackedLive) == 0 {
		return (r.deleteSeq * 7919) % r.in.DS.Len()
	}
	j := (r.deleteSeq * 7919) % len(r.ackedLive)
	id := r.ackedLive[j]
	r.ackedLive[j] = r.ackedLive[len(r.ackedLive)-1]
	r.ackedLive = r.ackedLive[:len(r.ackedLive)-1]
	return id
}

// allOps returns every operation sent so far across phases.
func (r *runner) allOps() []*opRec {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []*opRec
	for _, p := range r.phases {
		for i := range p.ops {
			if p.samples[i].Sent {
				out = append(out, &p.ops[i])
			}
		}
	}
	return append(out, r.extra...)
}
