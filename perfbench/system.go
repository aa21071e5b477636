package main

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"sync/atomic"

	mmdb "repro"
	"repro/internal/client"
	"repro/internal/dataset"
	"repro/internal/server"
)

// Operation kinds. Each has its own latency metrics.
const (
	kindBWM     = "bwm"
	kindRBM     = "rbm"
	kindIndexed = "indexed"
	kindKNN     = "knn"
	kindInsert  = "insert"
)

// allKinds is the reporting order of the operation kinds.
var allKinds = []string{kindBWM, kindRBM, kindIndexed, kindKNN, kindInsert}

// op is one request the generator sends.
type op struct {
	kind  string // query mode for range ops, kindKNN or kindInsert
	text  string // range or compound text
	fam   *familyQuery
	limit int
	probe int // index into the corpus probes
	// Inserts carry either a raster or a script.
	img *dataset.NamedImage
	seq *editedSpec
}

// answer is what a system returned for one op.
type answer struct {
	ids     []uint64
	matches []mmdb.Match
	id      uint64 // assigned id of an insert
}

// system is the deployment under test as the generator sees it.
type system interface {
	do(ctx context.Context, o *op) (answer, error)
	close()
}

// quietLogger formats access-log lines like a serving process does but
// drops them, so the benchmark's stderr stays readable.
var quietLogger = slog.New(slog.NewTextHandler(io.Discard, nil))

// reqSeq numbers request ids across the process.
var reqSeq atomic.Uint64

func newReqID() string { return fmt.Sprintf("pb-%d", reqSeq.Add(1)) }

// node is one database served over loopback HTTP. Its handler is the
// program's server.Server wrapped in a middleware that, while a tracer is
// installed, times ServeHTTP for requests the generator issued.
type node struct {
	name string
	db   *mmdb.DB
	srv  http.Handler
	ts   *httptest.Server
	tr   atomic.Pointer[tracer]
}

func newNode(name string, db *mmdb.DB, srv *server.Server) *node {
	n := &node{name: name, db: db, srv: srv.WithLogger(quietLogger)}
	n.ts = httptest.NewServer(n)
	return n
}

func (n *node) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t := n.tr.Load()
	if t == nil {
		n.srv.ServeHTTP(w, r)
		return
	}
	req := r.Header.Get("X-Request-ID")
	root, ok := t.root(req)
	if !ok {
		n.srv.ServeHTTP(w, r)
		return
	}
	cw := &countingWriter{ResponseWriter: w}
	start := t.now()
	n.srv.ServeHTTP(cw, r)
	t.add(span{Name: spanServer, Req: req, Parent: root, Start: start, End: t.now(),
		Node: n.name, Route: r.Method + " " + r.URL.Path, Bytes: cw.n})
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}

// nodeSys is a single node driven through the program's HTTP client.
type nodeSys struct {
	n      *node
	c      *client.Client
	hc     *http.Client
	probes []*mmdb.Image
}

func newNodeSys(n *node, probes []*mmdb.Image) *nodeSys {
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}}
	return &nodeSys{n: n, c: client.New(n.ts.URL, hc), hc: hc, probes: probes}
}

func (s *nodeSys) do(ctx context.Context, o *op) (answer, error) {
	switch {
	case o.kind == kindKNN:
		m, err := s.c.SimilarCtx(ctx, s.probes[o.probe], knnK, "l1")
		if err != nil {
			return answer{}, err
		}
		out := make([]mmdb.Match, len(m))
		for i, x := range m {
			out[i] = mmdb.Match{ID: x.ID, Dist: x.Dist}
		}
		return answer{matches: out}, nil
	case o.kind == kindInsert && o.img != nil:
		obj, err := s.c.InsertImageCtx(ctx, 0, o.img.Name, o.img.Img)
		if err != nil {
			return answer{}, err
		}
		return answer{id: obj.ID}, nil
	case o.kind == kindInsert:
		obj, err := s.c.InsertSequenceCtx(ctx, 0, o.seq.Name, o.seq.Seq)
		if err != nil {
			return answer{}, err
		}
		return answer{id: obj.ID}, nil
	case o.fam != nil:
		bins, err := s.n.db.ColorFamily(o.fam.Color)
		if err != nil {
			return answer{}, err
		}
		res, err := s.c.MultiRangeCtx(ctx, bins, o.fam.Min, o.fam.Max, o.kind, limitParams(o.limit)...)
		if err != nil {
			return answer{}, err
		}
		return answer{ids: res.IDs}, nil
	default:
		res, err := s.c.QueryCtx(ctx, o.text, o.kind, false, limitParams(o.limit)...)
		if err != nil {
			return answer{}, err
		}
		return answer{ids: res.IDs}, nil
	}
}

func limitParams(n int) []client.Param {
	if n <= 0 {
		return nil
	}
	return []client.Param{client.Limit(n)}
}

func (s *nodeSys) close() {
	s.hc.CloseIdleConnections()
	s.n.ts.Close()
}
