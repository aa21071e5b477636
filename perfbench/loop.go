package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/obs"
)

// gen yields one client's next op. prev is the client's previous op and
// its outcome (nil before the first); a nil op ends the client early.
type gen func(prev *outcome) *op

type outcome struct {
	op  *op
	ans answer
	err error
}

// ack is an insert the system acknowledged.
type ack struct {
	id uint64
	op *op
}

// phase is what one measured phase saw.
type phase struct {
	lat        map[string][]time.Duration
	attempted  int
	failed     int
	elapsed    time.Duration
	queries    int // completed non-insert ops
	inserts    int // completed inserts
	insertBusy time.Duration
	acked      []ack
	errs       []string
}

func newPhase() *phase { return &phase{lat: make(map[string][]time.Duration)} }

func (p *phase) merge(q *phase) {
	for k, v := range q.lat {
		p.lat[k] = append(p.lat[k], v...)
	}
	p.attempted += q.attempted
	p.failed += q.failed
	p.elapsed += q.elapsed
	p.queries += q.queries
	p.inserts += q.inserts
	p.insertBusy += q.insertBusy
	p.acked = append(p.acked, q.acked...)
	for _, e := range q.errs {
		if len(p.errs) < 5 {
			p.errs = append(p.errs, e)
		}
	}
}

// runner sends ops to a system, checks answers and, when traced, records
// the generator's call as the request's root span and lets replay add the
// inner layers.
type runner struct {
	sys   system
	check func(o *op, a answer) error // nil: no per-op check
	root  string                      // root span name prefix
	tr    *tracer
	// replay re-invokes the inner layers of a traced request.
	replay func(req string, root int, o *op)
}

// one sends a single op and records it into p.
func (r *runner) one(ctx context.Context, o *op, p *phase) outcome {
	// The program's client sends the request id as X-Request-ID, and the
	// coordinator forwards it to every shard.
	req := newReqID()
	ctx = obs.ContextWithRequestID(ctx, req)
	rootID := -1
	if r.tr != nil {
		rootID = r.tr.open(req, r.root+o.kind)
	}
	start := time.Now()
	ans, err := r.sys.do(ctx, o)
	lat := time.Since(start)
	if r.tr != nil {
		r.tr.close(rootID)
	}
	p.attempted++
	if err == nil && r.check != nil {
		err = r.check(o, ans)
	}
	if err != nil {
		p.failed++
		if len(p.errs) < 5 {
			p.errs = append(p.errs, fmt.Sprintf("%s %q: %v", o.kind, o.text, err))
		}
		return outcome{op: o, err: err}
	}
	p.lat[o.kind] = append(p.lat[o.kind], lat)
	if o.kind == kindInsert {
		p.inserts++
		p.insertBusy += lat
		p.acked = append(p.acked, ack{id: ans.id, op: o})
	} else {
		p.queries++
	}
	if r.tr != nil && r.replay != nil {
		r.replay(req, rootID, o)
	}
	return outcome{op: o, ans: ans}
}

// closedLoop runs one goroutine per generator; each sends its next op only
// after the previous one completed, until d has passed.
// pace, when non-nil, gives each client a minimum interval between the
// starts of its requests.
func (r *runner) closedLoop(ctx context.Context, gens []gen, pace func(c int) time.Duration, d time.Duration) *phase {
	start := time.Now()
	deadline := start.Add(d)
	parts := make([]*phase, len(gens))
	var wg sync.WaitGroup
	for i, g := range gens {
		parts[i] = newPhase()
		var interval time.Duration
		if pace != nil {
			interval = pace(i)
		}
		wg.Add(1)
		go func(g gen, p *phase) {
			defer wg.Done()
			var prev *outcome
			for time.Now().Before(deadline) && ctx.Err() == nil {
				o := g(prev)
				if o == nil {
					return
				}
				sent := time.Now()
				out := r.one(ctx, o, p)
				prev = &out
				if wait := interval - time.Since(sent); wait > 0 {
					time.Sleep(wait)
				}
			}
		}(g, parts[i])
	}
	wg.Wait()
	total := newPhase()
	for _, p := range parts {
		total.merge(p)
	}
	total.elapsed = time.Since(start)
	return total
}

// probe runs the kinds a workload's mix leaves out, so every latency
// metric exists on every workload. One client sends each kind in turn for
// an equal share of d and at least minProbes times: a fast kind then cycles
// through the whole query pool instead of a seed-dependent part of it.
func (r *runner) probe(ctx context.Context, kinds []string, gens map[string]gen, d time.Duration) *phase {
	total := newPhase()
	start := time.Now()
	for _, k := range kinds {
		end := time.Now().Add(d / time.Duration(len(kinds)))
		var prev *outcome
		for n := 0; (n < minProbes || time.Now().Before(end)) && ctx.Err() == nil; n++ {
			out := r.one(ctx, gens[k](prev), total)
			prev = &out
		}
	}
	total.elapsed = time.Since(start)
	return total
}
