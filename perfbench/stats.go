package main

import (
	"math"
	"sort"
	"time"
)

// tailBeyond is the number of samples the reported tail percentile must
// leave above it: a tail read from fewer samples is a single outlier.
const tailBeyond = 10

// summary is one latency distribution as the benchmark reports it.
type summary struct {
	N int
	// P50 is the median.
	P50 time.Duration
	// Tail is the value at the highest percentile, capped at p99, that has
	// at least tailBeyond samples beyond it; TailPct names that percentile.
	Tail    time.Duration
	TailPct float64
}

// summarize applies the percentile rule. With fewer than 2·tailBeyond
// samples no percentile above the median has enough samples beyond it, so
// the tail falls back to the median.
func summarize(samples []time.Duration) summary {
	n := len(samples)
	if n == 0 {
		return summary{}
	}
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	med := s[n/2]
	if n%2 == 0 {
		med = (s[n/2-1] + s[n/2]) / 2
	}
	out := summary{N: n, P50: med, Tail: med, TailPct: 50}
	// The tail index i leaves n-1-i ≥ tailBeyond samples beyond it, and
	// sits no higher than the p99 rank.
	i := n - 1 - tailBeyond
	if p99 := int(math.Ceil(0.99*float64(n))) - 1; p99 < i {
		i = p99
	}
	if pct := 100 * float64(i+1) / float64(n); pct > 50 {
		out.Tail, out.TailPct = s[i], pct
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// medianFloat is the median of xs (0 for none).
func medianFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
