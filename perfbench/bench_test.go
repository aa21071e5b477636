package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"testing"
	"time"
)

func TestSummarizePercentileRule(t *testing.T) {
	samples := func(n int) []time.Duration {
		out := make([]time.Duration, n)
		for i := range out {
			// Descending, so summarize must sort.
			out[i] = time.Duration(n-i) * time.Millisecond
		}
		return out
	}
	for _, tc := range []struct {
		n       int
		p50     time.Duration
		tail    time.Duration
		tailPct float64
	}{
		// 1000 samples support p99: 10 samples lie beyond the 990th.
		{1000, 500500 * time.Microsecond, 990 * time.Millisecond, 99},
		// 5000 samples: p99 is the cap even though more lie beyond it.
		{5000, 2500500 * time.Microsecond, 4950 * time.Millisecond, 99},
		// 100 samples support p90 at most.
		{100, 50500 * time.Microsecond, 90 * time.Millisecond, 90},
		// 21 samples: the 11th leaves exactly 10 beyond it.
		{21, 11 * time.Millisecond, 11 * time.Millisecond, 100 * 11.0 / 21},
		// 15 samples support no tail above the median.
		{15, 8 * time.Millisecond, 8 * time.Millisecond, 50},
	} {
		s := summarize(samples(tc.n))
		if s.N != tc.n || s.P50 != tc.p50 || s.Tail != tc.tail || s.TailPct != tc.tailPct {
			t.Errorf("n=%d: got %+v, want p50 %v tail p%.2f %v", tc.n, s, tc.p50, tc.tailPct, tc.tail)
		}
		beyond := 0
		for _, x := range samples(tc.n) {
			if x > s.Tail {
				beyond++
			}
		}
		if tc.n >= 2*tailBeyond+1 && beyond < tailBeyond {
			t.Errorf("n=%d: only %d samples beyond the tail", tc.n, beyond)
		}
	}
	if s := summarize(nil); s.N != 0 || s.Tail != 0 {
		t.Errorf("empty: %+v", s)
	}
}

func TestSelfTimesSubtractCoveredChildren(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{Name: "root", ID: 0, Parent: -1, Start: ms(0), End: ms(100)},
		{Name: "a", ID: 1, Parent: 0, Start: ms(10), End: ms(40)},
		{Name: "b", ID: 2, Parent: 0, Start: ms(30), End: ms(60)}, // overlaps a
		{Name: "a1", ID: 3, Parent: 1, Start: ms(15), End: ms(20)},
		{Name: "c", ID: 4, Parent: 0, Start: ms(90), End: ms(120)}, // runs past root
	}
	// root: children cover [10,60] and [90,100] -> 100-60.
	want := []time.Duration{ms(40), ms(25), ms(30), ms(5), ms(30)}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %s: self %v, want %v", spans[i].Name, got[i], want[i])
		}
	}
}

func TestReplayPlacesChildrenInsideParent(t *testing.T) {
	tr := newTracer()
	root := tr.add(span{Name: "client.bwm", Req: "r", Parent: -1, Start: 0, End: 10 * time.Millisecond})
	tr.replay(root, "r", []string{"x", "y", "z"}, []time.Duration{4 * time.Millisecond, 4 * time.Millisecond, 4 * time.Millisecond})
	kids := tr.children(root)
	if len(kids) != 3 {
		t.Fatalf("%d children", len(kids))
	}
	wantEnd := []time.Duration{4 * time.Millisecond, 8 * time.Millisecond, 10 * time.Millisecond}
	for i, k := range kids {
		if k.End != wantEnd[i] || !k.Replay {
			t.Errorf("child %s: [%v,%v] replay=%v", k.Name, k.Start, k.End, k.Replay)
		}
	}
	if self := selfTimes(tr.snapshot())[root]; self != 0 {
		t.Errorf("root self %v, want 0", self)
	}
}

// benchmarkSpec is the part of BENCHMARK.json the smoke test checks.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestSmokeEveryMetric runs every workload at a tiny size, untraced and
// traced, and checks that each metric BENCHMARK.json names prints with its
// unit and that every answer checked out.
func TestSmokeEveryMetric(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for _, wl := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			var log bytes.Buffer
			cfg := config{workload: wl.Name, seed: 3, seconds: 0.4, trace: traced, scale: 0.02,
				setups: 2, workdir: t.TempDir(), log: &log}
			rep, err := run(context.Background(), cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v\n%s", wl.Name, traced, err, log.String())
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s", wl.Name, traced, rep.Correct, rep.Attempted, rep.Failed, log.String())
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s trace=%v: printed %d metrics, BENCHMARK.json names %d", wl.Name, traced, len(rep.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := rep.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s printed as %+v (present %v), want unit %q", wl.Name, traced, m.Name, got, ok, m.Unit)
				}
			}
		}
	}
}
