// Command perfbench is the repository benchmark. It builds one workload's
// inputs from a seed, stands the system up over loopback HTTP, drives it in
// a closed loop, checks the answers, and prints the end-to-end metrics (or,
// with --trace 1, the per-layer metrics) as one JSON line on stdout. A
// human-readable table goes to stderr. See README.md.
//
//	go run . --workload scan-page --seed 1 --seconds 20 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// minProbes is the fewest ops a probe phase sends per kind: with the four
// slices of scan-page and index-full, 32 k-NN probes, each probe twice.
const minProbes = 8

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// scale multiplies the corpus sizes; the tests run at a small scale.
	scale float64
	// setups is how many times set-up runs; setup_s is their median.
	setups int
	// workdir holds the run's databases and the span files.
	workdir string
	log     io.Writer
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload name: scan-page, index-full, ingest-read or cluster-2x2")
	flag.Int64Var(&cfg.seed, "seed", 1, "input generation seed")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced run and prints per-layer metrics")
	flag.Parse()
	cfg.trace = trace == 1
	cfg.scale, cfg.setups, cfg.log = 1, 5, os.Stderr
	cfg.workdir = filepath.Join(".bench_build", "work")
	// The program logs through slog's default logger (replication, access
	// logs); keep the benchmark's stderr for its own table.
	slog.SetDefault(quietLogger)

	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	rep, err := run(ctx, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}

// run executes one benchmark run.
func run(ctx context.Context, cfg config) (*report, error) {
	w, err := findWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(cfg.log, "workload %s seed %d seconds %g trace %v\n", w.name, cfg.seed, cfg.seconds, cfg.trace)
	in := genInputs(w, cfg.seed, cfg.scale)
	runDir := filepath.Join(cfg.workdir, fmt.Sprintf("run-%d", os.Getpid()))
	defer os.RemoveAll(runDir)

	setups := max(1, cfg.setups)
	if cfg.trace {
		setups = 1
	}
	// Flush what earlier processes left in the page cache (a build, an
	// earlier run's databases), so set-up's and the run's fsyncs do not
	// pay for their write-back. The same after set-up, below.
	syscall.Sync()
	var setupS []float64
	var dep deployment
	for i := 0; i < setups; i++ {
		if dep != nil {
			dep.close()
		}
		start := time.Now()
		dep, err = w.setup(ctx, in, filepath.Join(runDir, fmt.Sprint(i)))
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	defer dep.close()

	// Release the generated corpus; probes and texts stay.
	in.corpus.Binaries, in.corpus.Edited = nil, nil
	syscall.Sync()
	runtime.GC()
	runtime.GC()
	var msHeap runtime.MemStats
	runtime.ReadMemStats(&msHeap)

	r := &runner{sys: dep, root: "client."}
	if _, ok := dep.(*clusterDep); ok {
		r.root = "cluster."
	}
	gens := make([]gen, w.clients)
	for c := range gens {
		gens[c] = w.mix(in, c)
	}
	probeGens := make(map[string]gen)
	for _, k := range w.probeKinds {
		probeGens[k] = probeGen(w, in, k)
	}
	var insertProbes []string
	if w.insertShare > 0 {
		insertProbes = []string{kindInsert}
		probeGens[kindInsert] = probeGen(w, in, kindInsert)
	}
	total := time.Duration(cfg.seconds * float64(time.Second))
	share := func(f float64) time.Duration { return time.Duration(float64(total) * f) }
	probeTime, insertTime := share(w.probeShare), share(w.insertShare)
	mixTime := total - probeTime - insertTime

	var lay *layerReport
	if cfg.trace {
		lay = startLayers(cfg, w, in, dep, r)
	}
	// Each measured phase starts from a collected heap, so one phase's
	// garbage is not collected on the next one's time.
	probe := func(kinds []string, d time.Duration) *phase {
		runtime.GC()
		if lay != nil {
			lay.traceProbes()
			defer lay.untrace()
		}
		return r.probe(ctx, kinds, probeGens, d)
	}
	// Query probes run before the mix (or each slice of it), at the
	// preloaded size. Probed inserts run after it: they change the
	// answers, and the mix is checked against RBM answers computed once,
	// here, outside set-up.
	if w.checked {
		exp, err := expect(ctx, dep.dbs()["node"], in)
		if err != nil {
			return nil, err
		}
		r.check = exp.check
	}
	slices := max(1, w.slices)
	if lay != nil {
		slices = 1 // the traced run splits its mix into an untraced and a traced half
	}
	slice := func(d time.Duration) time.Duration { return d / time.Duration(slices) }
	probes, main := newPhase(), newPhase()
	for range slices {
		probes.merge(probe(w.probeKinds, slice(probeTime)))
		runtime.GC()
		if lay == nil {
			main.merge(r.closedLoop(ctx, gens, w.pace, slice(mixTime)))
		} else {
			main.merge(lay.mix(ctx, gens, slice(mixTime)))
		}
	}
	probes.merge(probe(insertProbes, insertTime))
	if lay != nil {
		lay.end(main, probes)
	}

	rep := &report{Metrics: make(map[string]metric)}
	all := newPhase()
	all.merge(main)
	all.merge(probes)
	diskPerImage, ferr := dep.finish(ctx, in, all.acked)
	dep.close()
	rep.Attempted, rep.Failed = all.attempted, all.failed
	for _, e := range all.errs {
		fmt.Fprintln(cfg.log, "failed:", e)
	}
	rep.Correct = all.failed == 0 && ferr == nil
	if ferr != nil {
		rep.Attempted++
		rep.Failed++
		fmt.Fprintln(cfg.log, "post-run check failed:", ferr)
	}
	if ctx.Err() != nil {
		return nil, fmt.Errorf("run exceeded its time limit")
	}

	if cfg.trace {
		lay.finish(rep)
	} else {
		endToEnd(rep, main, all, setupS, msHeap.HeapAlloc, diskPerImage, cfg.log)
	}
	printTable(cfg.log, rep)
	return rep, nil
}

// endToEnd fills the end-to-end metrics.
func endToEnd(rep *report, main, all *phase, setupS []float64, heap uint64, diskPerImage float64, log io.Writer) {
	put := func(name string, v float64, unit string) { rep.Metrics[name] = metric{Value: v, Unit: unit} }
	put("setup_s", medianFloat(setupS), "s")
	put("heap_mb", float64(heap)/(1<<20), "MiB")
	put("query_qps", float64(main.queries)/main.elapsed.Seconds(), "1/s")
	for _, k := range allKinds {
		s := summarize(all.lat[k])
		put(k+"_p50_ms", ms(s.P50), "ms")
		put(k+"_p99_ms", ms(s.Tail), "ms")
		fmt.Fprintf(log, "%-8s n=%-6d p50=%.3fms tail=p%.1f %.3fms\n", k, s.N, ms(s.P50), s.TailPct, ms(s.Tail))
	}
	insertRate := 0.0
	if all.insertBusy > 0 {
		insertRate = float64(all.inserts) / all.insertBusy.Seconds()
	}
	put("insert_per_s", insertRate, "1/s")
	put("disk_bytes_per_image", diskPerImage, "B")
	put("ok_ratio", 1-float64(rep.Failed)/float64(max(1, rep.Attempted)), "ratio")
}

func printTable(log io.Writer, rep *report) {
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(log, "  %-28s %14.4f %s\n", n, rep.Metrics[n].Value, rep.Metrics[n].Unit)
	}
	fmt.Fprintf(log, "correct=%v attempted=%d failed=%d\n", rep.Correct, rep.Attempted, rep.Failed)
}
