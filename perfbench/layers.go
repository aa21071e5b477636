package main

import (
	"context"
	"strings"
	"sync"
	"time"

	mmdb "repro"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/rules"
)

// acc sums per-layer measurements; mean divides by the number added.
type acc struct {
	mu  sync.Mutex
	sum map[string]float64 // guarded by mu
	n   map[string]float64 // guarded by mu
}

func newAcc() *acc { return &acc{sum: make(map[string]float64), n: make(map[string]float64)} }

func (a *acc) add(name string, v float64) {
	a.mu.Lock()
	a.sum[name] += v
	a.n[name]++
	a.mu.Unlock()
}

func (a *acc) total(name string) float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.sum[name]
}

func (a *acc) mean(name string) float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.n[name] == 0 {
		return 0
	}
	return a.sum[name] / a.n[name]
}

// ratio is total(num) / total(den), 0 when the denominator is.
func (a *acc) ratio(num, den string) float64 {
	d := a.total(den)
	if d == 0 {
		return 0
	}
	return a.total(num) / d
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// Span names of re-invoked inner layers, and the layer each span counts
// toward in the wall-time shares.
const (
	spanServer = "server.ServeHTTP"
	spanParse  = "query.ParseCompound"
	spanQuery  = "mmdb.QueryCompound"
	spanMulti  = "mmdb.RangeQueryMulti"
	spanKNN    = "mmdb.QueryByExample"
	spanGet    = "mmdb.Get"
)

// layers are the wall-time share groups, in reporting order.
var layers = []string{"client", "cluster", "server", "query", "core", "catalog", "store"}

// layerOf maps a span to its share group. An insert's handler has no
// children that can be re-invoked (a replay would insert twice), so its
// whole ServeHTTP — WAL append and fsync, index upkeep and the edge —
// counts as store.
func layerOf(s span) string {
	name := s.Name
	switch {
	case name == spanServer && insertRoute(s.Route):
		return "store"
	case strings.HasPrefix(name, "client."):
		return "client"
	case strings.HasPrefix(name, "cluster."):
		return "cluster"
	case name == spanServer:
		return "server"
	case name == spanParse:
		return "query"
	case name == spanGet:
		return "catalog"
	default:
		return "core"
	}
}

func readRoute(route string) bool {
	return route == "GET /v1/query" || route == "GET /v1/multirange" || route == "POST /v1/similar"
}

func insertRoute(route string) bool {
	return route == "POST /v1/objects" || route == "POST /v1/sequences"
}

// replayer re-invokes the inner layers of each traced request on the
// database of the node that served it, and records them as children of
// that node's ServeHTTP span.
type replayer struct {
	tr     *tracer
	dbs    map[string]*mmdb.DB
	probes []*mmdb.Image
	a      *acc
}

func (r *replayer) replay(req string, root int, o *op) {
	ctx := context.Background()
	for _, sp := range r.tr.children(root) {
		db := r.dbs[sp.Node]
		if sp.Name != spanServer || db == nil {
			continue
		}
		switch sp.Route {
		case "GET /v1/query":
			r.query(ctx, db, req, sp.ID, o)
		case "GET /v1/multirange":
			r.multi(ctx, db, req, sp.ID, o)
		case "POST /v1/similar":
			start := time.Now()
			_, st, err := db.QueryByExampleCtx(ctx, r.probes[o.probe], knnK, mmdb.MetricL1)
			d := time.Since(start)
			if err != nil {
				continue
			}
			r.a.add("core.knn_ms", ms(d))
			r.a.add("knn.pruned", float64(st.EditedPruned))
			r.a.add("knn.edited", float64(st.EditedPruned+st.EditedInstantiated))
			r.tr.replay(sp.ID, req, []string{spanKNN}, []time.Duration{d})
		}
	}
}

// query replays what the query handler does: parse, evaluate, hydrate.
func (r *replayer) query(ctx context.Context, db *mmdb.DB, req string, parent int, o *op) {
	mode, err := mmdb.ParseMode(o.kind)
	if err != nil {
		return
	}
	start := time.Now()
	_, err = query.ParseCompound(o.text, db.Quantizer())
	parse := time.Since(start)
	if err != nil {
		return
	}
	start = time.Now()
	res, err := db.QueryCompoundCtx(ctx, o.text, mode, mmdb.WithLimit(o.limit))
	eval := time.Since(start)
	if err != nil {
		return
	}
	r.a.add("query.parse_us", us(parse))
	r.evaluated(ctx, o, res, eval, func(tr *mmdb.Trace) {
		db.QueryCompoundCtx(ctx, o.text, mode, mmdb.WithLimit(o.limit), mmdb.WithTrace(tr))
	})
	get := r.hydrate(db, res.IDs)
	r.tr.replay(parent, req, []string{spanParse, spanQuery, spanGet}, []time.Duration{parse, eval, get})
}

func (r *replayer) multi(ctx context.Context, db *mmdb.DB, req string, parent int, o *op) {
	mode, err := mmdb.ParseMode(o.kind)
	if err != nil || o.fam == nil {
		return
	}
	bins, err := db.ColorFamily(o.fam.Color)
	if err != nil {
		return
	}
	q := mmdb.MultiRange{Bins: bins, PctMin: o.fam.Min, PctMax: o.fam.Max}
	start := time.Now()
	res, err := db.RangeQueryMultiCtx(ctx, q, mode, mmdb.WithLimit(o.limit))
	eval := time.Since(start)
	if err != nil {
		return
	}
	r.evaluated(ctx, o, res, eval, func(tr *mmdb.Trace) {
		db.RangeQueryMultiCtx(ctx, q, mode, mmdb.WithLimit(o.limit), mmdb.WithTrace(tr))
	})
	get := r.hydrate(db, res.IDs)
	r.tr.replay(parent, req, []string{spanMulti, spanGet}, []time.Duration{eval, get})
}

// evaluated records one candidate-evaluation replay. The index counters
// only exist in a query trace, so indexed queries run once more traced;
// the timing comes from the untraced call.
func (r *replayer) evaluated(ctx context.Context, o *op, res *mmdb.Result, d time.Duration, traced func(*mmdb.Trace)) {
	st := res.Stats
	r.a.add("core.query_ms."+o.kind, ms(d))
	r.a.add("core.results", float64(len(res.IDs)))
	r.a.add("core.examined", float64(st.BinariesChecked+st.EditedWalked+st.EditedSkipped))
	switch o.kind {
	case kindBWM, kindRBM:
		r.a.add("rules.ops", float64(st.OpsEvaluated))
		if o.kind == kindBWM {
			r.a.add("bwm.skipped", float64(st.EditedSkipped))
			r.a.add("bwm.considered", float64(st.EditedSkipped+st.EditedWalked))
		}
	case kindIndexed:
		tr := mmdb.NewTrace()
		traced(tr)
		r.a.add("stree.nodes", float64(tr.Get(obs.TIndexNodesVisited)))
		r.a.add("stree.leaf_checks", float64(tr.Get(obs.TIndexLeafChecks)))
	}
}

// hydrate replays the handler's per-id catalog reads.
func (r *replayer) hydrate(db *mmdb.DB, ids []uint64) time.Duration {
	start := time.Now()
	for _, id := range ids {
		if _, err := db.Get(id); err != nil {
			break
		}
	}
	d := time.Since(start)
	r.a.add("catalog.get_us", us(d))
	r.a.add("catalog.ids", float64(len(ids)))
	return d
}

// spanMetrics folds a traced phase's spans into per-layer means, and, when
// shares is non-nil, sums self time per layer and over all layers.
func spanMetrics(spans []span, a *acc, shares map[string]time.Duration) {
	self := selfTimes(spans)
	kids := make(map[int][]int)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s.ID)
		}
	}
	for i, s := range spans {
		if shares != nil {
			shares[layerOf(s)] += self[i]
			shares["total"] += self[i]
		}
		switch {
		case s.Name == spanServer && readRoute(s.Route):
			a.add("server.handler_ms", ms(s.dur()))
			a.add("server.self_ms", ms(self[i]))
			a.add("server.resp_kb", float64(s.Bytes)/1024)
		case s.Name == spanServer && insertRoute(s.Route):
			a.add("server.insert_ms", ms(s.dur()))
		case strings.HasPrefix(s.Name, "client.") && s.Name != "client."+kindInsert:
			a.add("client.wire_ms", ms(self[i]))
		case strings.HasPrefix(s.Name, "cluster."):
			var slowest, leader time.Duration
			for _, k := range kids[s.ID] {
				c := spans[k]
				if readRoute(c.Route) {
					slowest = max(slowest, c.dur())
				}
				if insertRoute(c.Route) {
					leader = max(leader, c.dur())
				}
			}
			a.add("cluster.shard_calls", float64(len(kids[s.ID])))
			if s.Name == "cluster."+kindInsert {
				a.add("cluster.ack_ms", ms(s.dur()-leader))
			} else {
				a.add("cluster.shard_ms", ms(slowest))
				a.add("cluster.merge_self_ms", ms(self[i]))
			}
		}
	}
}

// rulesWalk times Engine.BoundsForBin over up to n stored edited scripts,
// one bin each, outside any request.
func rulesWalk(db *mmdb.DB, n int) (time.Duration, int) {
	eng := rules.NewEngine(db.Quantizer(), mmdb.RGB{}, catalogTargets{db})
	bin, err := db.BinForColor("red")
	if err != nil {
		return 0, 0
	}
	var total time.Duration
	walked := 0
	for _, id := range db.EditedIDs() {
		if walked >= n {
			break
		}
		obj, err := db.Get(id)
		if err != nil || obj.Seq == nil {
			continue
		}
		base, err := db.Get(obj.Seq.BaseID)
		if err != nil {
			continue
		}
		start := time.Now()
		_, err = eng.BoundsForBin(base.Hist, base.W, base.H, obj.Seq.Ops, bin)
		total += time.Since(start)
		if err == nil {
			walked++
		}
	}
	return total, walked
}

// catalogTargets resolves Merge targets from the stored catalog objects,
// as the program's own engine does.
type catalogTargets struct{ db *mmdb.DB }

func (c catalogTargets) HistogramOf(id uint64) (*mmdb.Histogram, error) {
	obj, err := c.db.Get(id)
	if err != nil {
		return nil, err
	}
	return obj.Hist, nil
}

func (c catalogTargets) DimsOf(id uint64) (int, int, error) {
	obj, err := c.db.Get(id)
	if err != nil {
		return 0, 0, err
	}
	return obj.W, obj.H, nil
}

// storeSampler polls storage counters during a traced phase: WAL bytes
// written (file growth, counting regrowth after a checkpoint truncates
// it) and the largest compaction backlog seen.
type storeSampler struct {
	dbs     map[string]*mmdb.DB
	stop    chan struct{}
	done    chan struct{}
	size    map[string]int64
	written int64
	backlog int
}

func startSampler(dbs map[string]*mmdb.DB) *storeSampler {
	s := &storeSampler{dbs: dbs, stop: make(chan struct{}), done: make(chan struct{}), size: make(map[string]int64)}
	s.sample()
	go func() {
		defer close(s.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				s.sample()
				return
			case <-t.C:
				s.sample()
			}
		}
	}()
	return s
}

func (s *storeSampler) sample() {
	for name, db := range s.dbs {
		if st, ok := db.WALStats(); ok {
			prev, seen := s.size[name]
			switch {
			case !seen:
			case st.SizeBytes >= prev:
				s.written += st.SizeBytes - prev
			default:
				s.written += st.SizeBytes
			}
			s.size[name] = st.SizeBytes
		}
		if st, ok := db.SegmentStats(); ok {
			s.backlog = max(s.backlog, st.CompactionBacklog)
		}
	}
}

// finish stops the sampler and waits for its goroutine.
func (s *storeSampler) finish() {
	close(s.stop)
	<-s.done
}

// storeSnap sums WAL and segment counters over a deployment's databases.
type storeSnap struct {
	fsyncs                                int64
	seals, compactions, stallNanos        int64
	sketchChecks, sketchSkips, live, dead int64
}

func snapStore(dbs map[string]*mmdb.DB) storeSnap {
	var s storeSnap
	for _, db := range dbs {
		if st, ok := db.WALStats(); ok {
			s.fsyncs += st.Fsyncs
		}
		if st, ok := db.SegmentStats(); ok {
			s.seals += st.Seals
			s.compactions += st.Compactions
			s.stallNanos += st.RateLimitStallNanos
			s.sketchChecks += st.SketchChecks
			s.sketchSkips += st.SketchSkips
			s.live += st.LiveBytes
			s.dead += st.DeadBytesEstimate
		}
	}
	return s
}
