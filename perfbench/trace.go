package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer's public function. Spans of one
// request share Req; Parent is the index of the enclosing span, or -1 for
// the request's root (the generator's call).
type span struct {
	Name   string        `json:"name"`
	Req    string        `json:"req"`
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	// Replay marks a child that was re-invoked after the request (the
	// inner layer called again on the same input) and placed inside its
	// parent's interval, not observed in flight.
	Replay bool `json:"replay,omitempty"`
	// Server spans name the node, the route and the response size.
	Node  string `json:"node,omitempty"`
	Route string `json:"route,omitempty"`
	Bytes int64  `json:"bytes,omitempty"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory for the length of a traced phase. Safe for
// concurrent use.
type tracer struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span         // guarded by mu
	roots map[string]int // guarded by mu; request id -> root span
	kids  map[int][]int  // guarded by mu; span -> direct children
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), roots: make(map[string]int), kids: make(map[int][]int)}
}

func (t *tracer) now() time.Duration { return time.Since(t.epoch) }

// add records a finished span and returns its index.
func (t *tracer) add(s span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = len(t.spans)
	t.spans = append(t.spans, s)
	if s.Parent < 0 {
		t.roots[s.Req] = s.ID
	} else {
		t.kids[s.Parent] = append(t.kids[s.Parent], s.ID)
	}
	return s.ID
}

// open records a root span whose end is filled in by close; children seen
// in flight (server middleware) find it through the request id.
func (t *tracer) open(req, name string) int {
	return t.add(span{Name: name, Req: req, Parent: -1, Start: t.now()})
}

func (t *tracer) close(id int) {
	end := t.now()
	t.mu.Lock()
	t.spans[id].End = end
	t.mu.Unlock()
}

// root returns the open root span of a request id.
func (t *tracer) root(req string) (int, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	id, ok := t.roots[req]
	return id, ok
}

func (t *tracer) get(id int) span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id]
}

// children returns the direct children of a span recorded so far.
func (t *tracer) children(id int) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.kids[id]))
	for _, k := range t.kids[id] {
		out = append(out, t.spans[k])
	}
	return out
}

// replay records re-invoked children of parent back to back from the
// parent's start, in the order the handler calls them, each clipped to the
// parent's end so children never cover more than their parent.
func (t *tracer) replay(parent int, req string, names []string, durs []time.Duration) {
	p := t.get(parent)
	at := p.Start
	for i, name := range names {
		end := at + durs[i]
		if end > p.End {
			end = p.End
		}
		t.add(span{Name: name, Req: req, Parent: parent, Start: at, End: end, Replay: true})
		at = end
	}
}

// snapshot returns a copy of every span recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns, per span, its duration minus the part of its
// interval that its children cover (overlapping children count once).
func selfTimes(spans []span) []time.Duration {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		out[i] = s.dur() - covered(s, kids[s.ID])
	}
	return out
}

// covered measures the union of the children's intervals clipped to the
// parent's interval.
func covered(parent span, children []span) time.Duration {
	type iv struct{ lo, hi time.Duration }
	var ivs []iv
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.lo <= cur.hi:
			cur.hi = max(cur.hi, v.hi)
		default:
			total += cur.hi - cur.lo
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.hi - cur.lo
	}
	return total
}

// writeSpans writes spans as JSON lines.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
