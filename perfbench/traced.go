package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// layerReport collects the traced run's per-layer measurements.
type layerReport struct {
	a      *acc
	shares map[string]time.Duration
	// qps of the mix untraced and traced; their gap is the tracing cost.
	qpsUntraced, qpsTraced float64
	allocKBPerOp, gcCycles float64
	before, after          storeSnap
	walWritten             int64
	backlogMax             int
	inserts                int
	streeBuild             time.Duration
	rulesWalk              time.Duration
	rulesWalked            int
	log                    func(format string, a ...any)

	cfg            config
	w              *workload
	dep            deployment
	r              *runner
	rp             *replayer
	mixTr, probeTr *tracer
	sampler        *storeSampler
}

// startLayers prepares a traced run: the replayer that re-invokes inner
// layers, the storage counters and their sampler. Storage counters cover
// every phase of the run.
func startLayers(cfg config, w *workload, in *inputs, dep deployment, r *runner) *layerReport {
	dbs := dep.dbs()
	l := &layerReport{a: newAcc(), shares: make(map[string]time.Duration), streeBuild: dep.streeBuild(),
		cfg: cfg, w: w, dep: dep, r: r, mixTr: newTracer(), probeTr: newTracer(),
		log: func(format string, a ...any) { fmt.Fprintf(cfg.log, format, a...) }}
	l.rp = &replayer{dbs: dbs, probes: in.corpus.Probes, a: l.a}
	r.replay = l.rp.replay
	l.before = snapStore(dbs)
	l.sampler = startSampler(dbs)
	return l
}

func (l *layerReport) trace(t *tracer) {
	l.rp.tr, l.r.tr = t, t
	l.dep.setTracer(t)
}

func (l *layerReport) traceProbes() { l.trace(l.probeTr) }
func (l *layerReport) untrace()     { l.trace(nil) }

// mix runs the mix untraced for half of d (runtime counters and the qps
// baseline), then traced for the other half. It returns both halves.
func (l *layerReport) mix(ctx context.Context, gens []gen, d time.Duration) *phase {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	untraced := l.r.closedLoop(ctx, gens, l.w.pace, d/2)
	runtime.ReadMemStats(&m1)
	ops := max(1, untraced.queries+untraced.inserts)
	l.allocKBPerOp = float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / float64(ops)
	l.gcCycles = float64(m1.NumGC - m0.NumGC)
	l.qpsUntraced = float64(untraced.queries) / untraced.elapsed.Seconds()

	l.trace(l.mixTr)
	traced := l.r.closedLoop(ctx, gens, l.w.pace, d/2)
	l.untrace()
	l.qpsTraced = float64(traced.queries) / traced.elapsed.Seconds()
	traced.merge(untraced)
	return traced
}

// end stops the storage sampler, folds the spans into per-layer numbers,
// writes the spans out and times the rule walk.
func (l *layerReport) end(mix, probes *phase) {
	l.sampler.finish()
	dbs := l.dep.dbs()
	l.after = snapStore(dbs)
	l.walWritten, l.backlogMax = l.sampler.written, l.sampler.backlog
	l.inserts = mix.inserts + probes.inserts

	mixSpans, probeSpans := l.mixTr.snapshot(), l.probeTr.snapshot()
	spanMetrics(mixSpans, l.a, l.shares)
	spanMetrics(probeSpans, l.a, nil)
	base := filepath.Join(l.cfg.workdir, "spans", fmt.Sprintf("%s-seed%d", l.w.name, l.cfg.seed))
	for suffix, spans := range map[string][]span{"-mix.jsonl": mixSpans, "-probe.jsonl": probeSpans} {
		if err := writeSpans(base+suffix, spans); err != nil {
			l.log("write spans: %v\n", err)
		}
	}
	names := make([]string, 0, len(dbs))
	for name := range dbs {
		names = append(names, name)
	}
	sort.Strings(names) // the single node, or the cluster's first leader
	l.rulesWalk, l.rulesWalked = rulesWalk(dbs[names[0]], 200)
}

// finish puts every per-layer metric into rep. A metric whose layer the
// workload never reached reads 0.
func (l *layerReport) finish(rep *report) {
	a := l.a
	put := func(name string, v float64, unit string) { rep.Metrics[name] = metric{Value: v, Unit: unit} }
	perInsert := func(v float64) float64 {
		if l.inserts == 0 {
			return 0
		}
		return v / float64(l.inserts)
	}
	put("server.handler_ms", a.mean("server.handler_ms"), "ms")
	put("server.self_ms", a.mean("server.self_ms"), "ms")
	put("client.wire_ms", a.mean("client.wire_ms"), "ms")
	put("server.resp_kb", a.mean("server.resp_kb"), "KiB")
	put("catalog.get_us", a.ratio("catalog.get_us", "catalog.ids"), "us")
	put("query.parse_us", a.mean("query.parse_us"), "us")
	for _, k := range []string{kindBWM, kindRBM, kindIndexed} {
		put("core.query_ms."+k, a.mean("core.query_ms."+k), "ms")
	}
	put("core.results_per_query", a.mean("core.results"), "count")
	put("core.examined_per_result", a.ratio("core.examined", "core.results"), "ratio")
	put("core.knn_ms", a.mean("core.knn_ms"), "ms")
	put("knn.pruned_ratio", a.ratio("knn.pruned", "knn.edited"), "ratio")
	put("bwm.fastpath_ratio", a.ratio("bwm.skipped", "bwm.considered"), "ratio")
	put("rules.ops_per_query", a.mean("rules.ops"), "count")
	walk := 0.0
	if l.rulesWalked > 0 {
		walk = us(l.rulesWalk) / float64(l.rulesWalked)
	}
	put("rules.walk_us", walk, "us")
	put("stree.nodes_per_query", a.mean("stree.nodes"), "count")
	put("stree.leaf_checks_per_query", a.mean("stree.leaf_checks"), "count")
	put("stree.build_ms", ms(l.streeBuild), "ms")
	put("server.insert_ms", a.mean("server.insert_ms"), "ms")
	put("store.fsyncs_per_insert", perInsert(float64(l.after.fsyncs-l.before.fsyncs)), "count")
	put("store.wal_bytes_per_insert", perInsert(float64(l.walWritten)), "B")
	put("segment.seals", float64(l.after.seals-l.before.seals), "count")
	put("segment.compactions", float64(l.after.compactions-l.before.compactions), "count")
	put("segment.stall_ms", float64(l.after.stallNanos-l.before.stallNanos)/1e6, "ms")
	put("segment.backlog_max", float64(l.backlogMax), "count")
	skipRatio := 0.0
	if checks := l.after.sketchChecks - l.before.sketchChecks; checks > 0 {
		skipRatio = float64(l.after.sketchSkips-l.before.sketchSkips) / float64(checks)
	}
	put("segment.sketch_skip_ratio", skipRatio, "ratio")
	deadRatio := 0.0
	if l.after.live+l.after.dead > 0 {
		deadRatio = float64(l.after.dead) / float64(l.after.live+l.after.dead)
	}
	put("segment.dead_ratio", deadRatio, "ratio")
	put("cluster.shard_ms", a.mean("cluster.shard_ms"), "ms")
	put("cluster.merge_self_ms", a.mean("cluster.merge_self_ms"), "ms")
	put("cluster.shard_calls_per_op", a.mean("cluster.shard_calls"), "count")
	put("cluster.ack_ms", a.mean("cluster.ack_ms"), "ms")
	put("go.alloc_kb_per_op", l.allocKBPerOp, "KiB")
	put("go.gc_cycles", l.gcCycles, "count")
	// Self times of sequential spans sum to the roots' wall time; where a
	// request's spans run in parallel (a cluster's shards) they sum to
	// more, and a share is one of the work done, not of wall time.
	total := l.shares["total"]
	for _, layer := range layers {
		share := 0.0
		if total > 0 {
			share = float64(l.shares[layer]) / float64(total)
		}
		put("share."+layer, share, "ratio")
	}
	overhead := 0.0
	if l.qpsUntraced > 0 {
		overhead = 100 * (l.qpsUntraced - l.qpsTraced) / l.qpsUntraced
	}
	put("trace.overhead_pct", overhead, "%")
	l.log("query_qps untraced %.1f traced %.1f: tracing overhead %.1f%%\n", l.qpsUntraced, l.qpsTraced, overhead)
}
