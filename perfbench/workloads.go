package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	mmdb "repro"
	"repro/internal/server"
)

const (
	pageLimit = 50 // the gallery page size of scan-page and ingest-read reads
	knnK      = 10
)

// workload is one traffic mix over one deployment. Why each exists is in
// README.md and BENCHMARK.json.
type workload struct {
	name string
	// corpus sizes the preloaded data at scale 1.
	corpus corpusSpec
	// setup opens and loads the deployment and runs the first queries that
	// trigger lazy builds; it is what setup_s times.
	setup func(ctx context.Context, in *inputs, dir string) (deployment, error)
	// mix returns client c's generator of the measured mix.
	mix     func(in *inputs, c int) gen
	clients int
	// pace is each client's minimum interval between request starts (a
	// client's think time); zero sends the next request at once.
	pace func(c int) time.Duration
	// slices splits the run into that many alternations of query probes
	// and mix, so each kind's samples span the whole run rather than one
	// stretch of it (a shared 2-vCPU VM's speed wanders by ±20 % over seconds).
	// Only a mix that does not write may be split: otherwise later probes
	// would see a store grown by however many writes the machine managed.
	slices int
	// probeKinds are the query kinds the mix leaves out, measured beside
	// it for probeShare of the run; probeLimit is the page size of their
	// range queries (0: none).
	probeKinds []string
	probeShare float64
	probeLimit int
	// insertShare is the share of the run given to probed inserts, on a
	// workload whose mix does not insert. They run last, since they change
	// the answers, in one stretch; a sub-millisecond in-memory insert reads
	// that stretch's machine speed, so the stretch is long.
	insertShare float64
	// checked workloads compare every answer with an RBM answer computed
	// outside set-up; the others check the final state after the run.
	checked bool
}

// deployment is a set-up system plus the hooks the run needs around it.
type deployment interface {
	system
	// dbs are the databases behind the system, by node name.
	dbs() map[string]*mmdb.DB
	setTracer(t *tracer)
	// streeBuild is the first indexed query's time beyond a warm one: the
	// lazy S-tree build.
	streeBuild() time.Duration
	// finish runs the post-run checks and returns stored bytes per live
	// image.
	finish(ctx context.Context, in *inputs, acked []ack) (float64, error)
}

// inputs is everything generated from the seed.
type inputs struct {
	seed     int64
	spec     corpusSpec // scaled
	corpus   *corpus
	texts    []string
	compound []string
	families []familyQuery
}

func genInputs(w *workload, seed int64, scale float64) *inputs {
	spec := w.corpus
	spec.Binaries = scaled(spec.Binaries, scale)
	spec.Edited = scaled(spec.Edited, scale)
	rng := rand.New(rand.NewSource(seed + 7))
	return &inputs{
		seed:     seed,
		spec:     spec,
		corpus:   genCorpus(spec, seed),
		texts:    rangeTexts(rng),
		compound: compoundTexts(rng),
		families: familyQueries(rng),
	}
}

func scaled(n int, scale float64) int {
	return max(1, int(math.Round(float64(n)*scale)))
}

var workloads = []*workload{
	{
		name:        "scan-page",
		corpus:      paperCorpus,
		setup:       setupMemory,
		mix:         scanPageMix,
		clients:     1,
		slices:      4,
		probeKinds:  []string{kindIndexed},
		probeShare:  0.125,
		probeLimit:  pageLimit,
		insertShare: 0.25,
		checked:     true,
	},
	{
		name:        "index-full",
		corpus:      paperCorpus,
		setup:       setupMemory,
		mix:         indexFullMix,
		clients:     1,
		slices:      4,
		probeKinds:  []string{kindBWM, kindRBM, kindKNN},
		probeShare:  0.25,
		probeLimit:  pageLimit,
		insertShare: 0.2,
		checked:     true,
	},
	{
		name:       "ingest-read",
		corpus:     corpusSpec{Binaries: 230, Edited: 770, NonWidening: 0.35, Probes: 16},
		setup:      setupDurable,
		mix:        ingestReadMix,
		clients:    2,
		pace:       ingestPace,
		probeKinds: []string{kindRBM, kindKNN},
		probeShare: 0.25,
		probeLimit: pageLimit,
	},
	{
		name:    "cluster-2x2",
		corpus:  corpusSpec{Binaries: 230, Edited: 770, NonWidening: 0.35, Probes: 16},
		setup:   setupCluster,
		mix:     clusterMix,
		clients: 1,
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// scanPageMix alternates bwm and rbm pages of the same text, with every
// fifth request a k-NN probe.
func scanPageMix(in *inputs, c int) gen {
	i := 0
	return func(*outcome) *op {
		defer func() { i++ }()
		if i%5 == 4 {
			return &op{kind: kindKNN, probe: (c*3 + i/5) % len(in.corpus.Probes)}
		}
		j := i - i/5
		kind := kindBWM
		if j%2 == 1 {
			kind = kindRBM
		}
		return &op{kind: kind, text: in.texts[(c*17+j/2)%len(in.texts)], limit: pageLimit}
	}
}

// indexFullMix cycles range, compound, range, color-family, all indexed
// and unlimited.
func indexFullMix(in *inputs, c int) gen {
	i := 0
	return func(*outcome) *op {
		defer func() { i++ }()
		n := c*13 + i/4
		switch i % 4 {
		case 1:
			return &op{kind: kindIndexed, text: in.compound[n%len(in.compound)]}
		case 3:
			return &op{kind: kindIndexed, fam: &in.families[n%len(in.families)]}
		default:
			return &op{kind: kindIndexed, text: in.texts[(2*n+i%4/2)%len(in.texts)]}
		}
	}
}

// ingestPace paces the ingest writer at one insert per 2 ms at most, so
// the store grows by about the same number of objects in every run instead
// of by however many the machine manages; the reads see the same sizes.
func ingestPace(c int) time.Duration {
	if c == 0 {
		return 2 * time.Millisecond
	}
	return 0
}

// ingestReadMix: client 0 writes, client 1 reads bwm and indexed pages.
func ingestReadMix(in *inputs, c int) gen {
	if c == 0 {
		return insertGen(in, 0)
	}
	return alternatingReads(in, kindBWM, kindIndexed, pageLimit)
}

// clusterMix sends an insert every other request through the
// coordinator, and between the inserts range texts and k-NN probes: of
// every six reads three are bwm (the coordinator's default mode), one
// rbm, one indexed and one k-NN.
func clusterMix(in *inputs, _ int) gen {
	ins := insertGen(in, 0)
	var lastIns *outcome
	i, ranges := 0, 0
	return func(prev *outcome) *op {
		defer func() { i++ }()
		if prev != nil && prev.op.kind == kindInsert {
			lastIns = prev
		}
		if i%2 == 1 {
			o := ins(lastIns)
			lastIns = nil
			return o
		}
		read := i / 2
		kind := []string{kindBWM, kindKNN, kindBWM, kindRBM, kindBWM, kindIndexed}[read%6]
		if kind == kindKNN {
			return &op{kind: kindKNN, probe: (read / 6) % len(in.corpus.Probes)}
		}
		ranges++
		return &op{kind: kind, text: in.texts[ranges%len(in.texts)]}
	}
}

func alternatingReads(in *inputs, a, b string, limit int) gen {
	i := 0
	return func(*outcome) *op {
		defer func() { i++ }()
		kind := a
		if i%2 == 1 {
			kind = b
		}
		return &op{kind: kind, text: in.texts[(i/2)%len(in.texts)], limit: limit}
	}
}

// insertGen yields one binary flag then three edited scripts over it, and
// so on. The scripts need the binary's assigned id, which the generator
// reads from the binary's acked outcome; a failed binary insert is followed
// by another binary.
func insertGen(in *inputs, stream int64) gen {
	s := newInsertStream(in.seed+stream*1000, len(in.corpus.Binaries))
	var pending []*mmdb.Sequence
	n := 0
	return func(prev *outcome) *op {
		if prev != nil && prev.err == nil && prev.op.kind == kindInsert && prev.op.img != nil {
			pending = s.scriptsOver(prev.ans.id, prev.op.img.Img)
		}
		if len(pending) > 0 {
			seq := pending[0]
			pending = pending[1:]
			n++
			return &op{kind: kindInsert, seq: &editedSpec{Name: fmt.Sprintf("ingest-edit-%06d", n), Seq: seq}}
		}
		img := s.nextBinary()
		return &op{kind: kindInsert, img: &img}
	}
}

// probeGen returns the generator of a probe kind.
func probeGen(w *workload, in *inputs, kind string) gen {
	switch kind {
	case kindInsert:
		return insertGen(in, 1)
	case kindKNN:
		i := 0
		return func(*outcome) *op {
			i++
			return &op{kind: kindKNN, probe: i % len(in.corpus.Probes)}
		}
	default:
		i := 0
		return func(*outcome) *op {
			i++
			return &op{kind: kind, text: in.texts[i%len(in.texts)], limit: w.probeLimit}
		}
	}
}

// load inserts the corpus directly through the facade under explicit ids
// — binaries 1..n, then the scripts that name them — from loadWorkers
// goroutines, as a bulk loader would; on a durable node their appends share
// WAL fsyncs through group commit.
func load(ctx context.Context, db *mmdb.DB, c *corpus) error {
	nb := len(c.Binaries)
	err := parallel(nb, func(i int) error {
		b := c.Binaries[i]
		_, err := db.InsertImageCtx(ctx, b.Name, b.Img, mmdb.WithID(uint64(i+1)))
		return err
	})
	if err != nil {
		return fmt.Errorf("load binaries: %w", err)
	}
	err = parallel(len(c.Edited), func(i int) error {
		e := c.Edited[i]
		_, err := db.InsertEditedCtx(ctx, e.Name, e.Seq, mmdb.WithID(uint64(nb+i+1)))
		return err
	})
	if err != nil {
		return fmt.Errorf("load scripts: %w", err)
	}
	return nil
}

const loadWorkers = 4

// parallel calls f(0..n-1) from loadWorkers goroutines and returns the
// errors they met; a worker stops at its first error.
func parallel(n int, f func(i int) error) error {
	var next atomic.Int64
	errs := make([]error, loadWorkers)
	var wg sync.WaitGroup
	for w := range errs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for errs[w] == nil {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				errs[w] = f(i)
			}
		}(w)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// single is one node behind the program's HTTP server.
type single struct {
	*nodeSys
	dir   string // empty for an in-memory node
	opts  []mmdb.Option
	build time.Duration
	once  sync.Once
}

func (s *single) dbs() map[string]*mmdb.DB  { return map[string]*mmdb.DB{s.n.name: s.n.db} }
func (s *single) setTracer(t *tracer)       { s.n.tr.Store(t) }
func (s *single) streeBuild() time.Duration { return s.build }

func (s *single) close() {
	s.once.Do(func() {
		s.nodeSys.close()
		s.n.db.Close()
	})
}

// warm sends the first queries of each mode, which build the lazy
// structures (the S-tree on the first indexed query), twice over so a
// replica set's round-robin reads reach both replicas. It returns the
// first indexed query's time beyond a warm one.
func warm(ctx context.Context, sys system, in *inputs, limit int) (time.Duration, error) {
	var times []time.Duration
	for _, k := range []string{kindIndexed, kindIndexed, kindIndexed, kindBWM, kindBWM, kindRBM, kindRBM} {
		d, err := timed(func() error {
			_, err := sys.do(ctx, &op{kind: k, text: in.texts[0], limit: limit})
			return err
		})
		if err != nil {
			return 0, fmt.Errorf("warm %s: %w", k, err)
		}
		times = append(times, d)
	}
	return max(0, times[0]-times[2]), nil
}

func setupMemory(ctx context.Context, in *inputs, _ string) (deployment, error) {
	db, err := mmdb.Open()
	if err != nil {
		return nil, err
	}
	if err := load(ctx, db, in.corpus); err != nil {
		db.Close()
		return nil, err
	}
	s := &single{nodeSys: newNodeSys(newNode("node", db, server.New(db)), in.corpus.Probes)}
	if s.build, err = warm(ctx, s, in, pageLimit); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// durableOptions are the engine settings `esidb serve -segments` uses.
func durableOptions(dir string) []mmdb.Option {
	return []mmdb.Option{
		mmdb.WithPath(filepath.Join(dir, "ingest.db")),
		mmdb.WithSegmentStore(mmdb.SegmentOptions{Background: true}),
	}
}

func setupDurable(ctx context.Context, in *inputs, dir string) (deployment, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	opts := durableOptions(dir)
	db, err := mmdb.Open(opts...)
	if err != nil {
		return nil, err
	}
	if err := load(ctx, db, in.corpus); err != nil {
		db.Close()
		return nil, err
	}
	s := &single{nodeSys: newNodeSys(newNode("node", db, server.New(db)), in.corpus.Probes), dir: dir, opts: opts}
	if s.build, err = warm(ctx, s, in, pageLimit); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// finish for a single node. In memory, stored bytes are the program's
// storage footprint estimate. On disk, the store is compacted and
// measured, every mode is checked against RBM on the final state, and the
// store is closed, reopened and checked for every acked write.
func (s *single) finish(ctx context.Context, in *inputs, acked []ack) (float64, error) {
	db := s.n.db
	live := len(db.Binaries()) + len(db.EditedIDs())
	if s.dir == "" {
		bin, ed, err := db.StorageFootprint()
		if err != nil {
			return 0, err
		}
		return float64(bin+ed) / float64(live), nil
	}
	if err := modesAgree(ctx, db, in.texts[:8]); err != nil {
		return 0, err
	}
	if err := db.Compact(); err != nil {
		return 0, fmt.Errorf("compact: %w", err)
	}
	bytes, err := dirBytes(s.dir)
	if err != nil {
		return 0, err
	}
	s.close()
	re, err := mmdb.Open(s.opts...)
	if err != nil {
		return 0, fmt.Errorf("reopen: %w", err)
	}
	defer re.Close()
	if err := ackedReadable(re, acked); err != nil {
		return 0, err
	}
	if n := len(re.Binaries()) + len(re.EditedIDs()); n != live {
		return 0, fmt.Errorf("reopen holds %d objects, want %d", n, live)
	}
	return float64(bytes) / float64(live), nil
}

// modesAgree checks that bwm and indexed return RBM's full answer.
func modesAgree(ctx context.Context, db *mmdb.DB, texts []string) error {
	for _, t := range texts {
		want, err := db.QueryCompoundCtx(ctx, t, mmdb.ModeRBM)
		if err != nil {
			return err
		}
		for _, m := range []mmdb.Mode{mmdb.ModeBWM, mmdb.ModeIndexed} {
			got, err := db.QueryCompoundCtx(ctx, t, m)
			if err != nil {
				return err
			}
			if !sameIDs(got.IDs, want.IDs) {
				return fmt.Errorf("%q: %v returned %d ids, rbm %d", t, m, len(got.IDs), len(want.IDs))
			}
		}
	}
	return nil
}

// ackedReadable checks that every acked insert is readable under its id
// with the name it was written with.
func ackedReadable(db *mmdb.DB, acked []ack) error {
	for _, a := range acked {
		obj, err := db.Get(a.id)
		if err != nil {
			return fmt.Errorf("acked id %d: %w", a.id, err)
		}
		if want := a.op.name(); obj.Name != want {
			return fmt.Errorf("acked id %d: name %q, want %q", a.id, obj.Name, want)
		}
	}
	return nil
}

func (o *op) name() string {
	if o.img != nil {
		return o.img.Name
	}
	return o.seq.Name
}

func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if fi.Mode().IsRegular() {
			total += fi.Size()
		}
		return nil
	})
	return total, err
}

func sameIDs(a, b []uint64) bool {
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

// expectations are RBM answers computed outside set-up, keyed by query
// and limit; every mode must return exactly these ids.
type expectations struct {
	ids map[string][]uint64
	knn map[int][]mmdb.Match
}

func queryKey(o *op) string {
	if o.fam != nil {
		return fmt.Sprintf("family %s %g %g", o.fam.Color, o.fam.Min, o.fam.Max)
	}
	return o.text
}

// expect computes the RBM answers for every query the workload can send.
func expect(ctx context.Context, db *mmdb.DB, in *inputs) (*expectations, error) {
	e := &expectations{ids: make(map[string][]uint64), knn: make(map[int][]mmdb.Match)}
	var qs []*op
	for _, t := range append(append([]string{}, in.texts...), in.compound...) {
		qs = append(qs, &op{text: t})
	}
	for i := range in.families {
		qs = append(qs, &op{fam: &in.families[i]})
	}
	for _, o := range qs {
		var res *mmdb.Result
		var err error
		if o.fam != nil {
			bins, ferr := db.ColorFamily(o.fam.Color)
			if ferr != nil {
				return nil, ferr
			}
			res, err = db.RangeQueryMultiCtx(ctx, mmdb.MultiRange{Bins: bins, PctMin: o.fam.Min, PctMax: o.fam.Max}, mmdb.ModeRBM)
		} else {
			res, err = db.QueryCompoundCtx(ctx, o.text, mmdb.ModeRBM)
		}
		if err != nil {
			return nil, fmt.Errorf("expect %s: %w", queryKey(o), err)
		}
		e.ids[queryKey(o)] = res.IDs
	}
	for p := 0; p < len(in.corpus.Probes); p++ {
		m, _, err := db.QueryByExampleCtx(ctx, in.corpus.Probes[p], knnK, mmdb.MetricL1, mmdb.ModeRBM)
		if err != nil {
			return nil, fmt.Errorf("expect knn %d: %w", p, err)
		}
		e.knn[p] = m
	}
	return e, nil
}

// check compares one answer with the RBM expectation. Inserts are checked
// after the run instead.
func (e *expectations) check(o *op, a answer) error {
	switch o.kind {
	case kindInsert:
		return nil
	case kindKNN:
		want := e.knn[o.probe]
		if len(a.matches) != len(want) {
			return fmt.Errorf("knn probe %d: %d matches, rbm %d", o.probe, len(a.matches), len(want))
		}
		for i := range want {
			if a.matches[i].ID != want[i].ID || math.Abs(a.matches[i].Dist-want[i].Dist) > 1e-9 {
				return fmt.Errorf("knn probe %d: match %d is %v, rbm %v", o.probe, i, a.matches[i], want[i])
			}
		}
		return nil
	}
	want, ok := e.ids[queryKey(o)]
	if !ok {
		return fmt.Errorf("no expectation for %s", queryKey(o))
	}
	if o.limit > 0 && len(want) > o.limit {
		want = want[:o.limit]
	}
	if !sameIDs(a.ids, want) {
		return fmt.Errorf("%s answered %d ids, rbm %d (first differing page)", o.kind, len(a.ids), len(want))
	}
	return nil
}

// timed runs f and returns its duration.
func timed(f func() error) (time.Duration, error) {
	start := time.Now()
	err := f()
	return time.Since(start), err
}
