package main

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// phase counts one workload phase's operations. Every operation that
// returns an error counts as failed: OVERLOADED replies, deadlines and
// transport errors included.
type phase struct {
	name   string
	tried  atomic.Int64
	failed atomic.Int64
}

func (r *report) newPhase(name string) *phase {
	p := &phase{name: name}
	r.phases = append(r.phases, p)
	return p
}

func (p *phase) attempted() int64 { return p.tried.Load() }
func (p *phase) failedOps() int64 { return p.failed.Load() }

// record counts one attempted operation and reports whether it succeeded.
func (p *phase) record(err error) bool {
	p.tried.Add(1)
	if err != nil {
		p.failed.Add(1)
		return false
	}
	return true
}

// samples holds per-operation latencies of one kind.
type samples []time.Duration

func (s samples) sorted() samples {
	out := append(samples(nil), s...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// quantileMS returns the q-quantile of sorted samples in milliseconds
// (nearest rank).
func (s samples) quantileMS(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return float64(s[i]) / 1e6
}

// latencyLine prints a latency distribution the way the benchmark
// reports timings: the median always, and the highest of p99 and p90
// that has at least ten samples beyond it, with the sample count.
func (r *report) latencyLine(name string, s samples) {
	s = s.sorted()
	line := name
	switch {
	case len(s) == 0:
		r.printf("%s: no samples", name)
		return
	case len(s) >= 1000:
		r.printf("%s: n=%d p50=%.4f ms p99=%.4f ms", line, len(s), s.quantileMS(0.5), s.quantileMS(0.99))
	case len(s) >= 100:
		r.printf("%s: n=%d p50=%.4f ms p90=%.4f ms (too few samples for p99)", line, len(s), s.quantileMS(0.5), s.quantileMS(0.9))
	default:
		r.printf("%s: n=%d p50=%.4f ms (too few samples for a tail)", line, len(s), s.quantileMS(0.5))
	}
}

// median returns the median of xs (which it sorts).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// quartiles returns the first quartile, median and third quartile of xs
// with the same method as Python's statistics.quantiles(xs, n=4)
// (exclusive), so the repeat summary matches how the spread is judged.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), median(s), at(3)
}

// quartileText formats quartiles(xs) for the report.
func quartileText(xs []float64) string {
	q1, q2, q3 := quartiles(xs)
	return fmt.Sprintf("q1 %.4g median %.4g q3 %.4g (n=%d)", q1, q2, q3, len(xs))
}
