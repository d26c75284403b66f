package main

import (
	"math"
	"sort"
	"time"
)

// tailBeyond is the number of samples the reported tail must leave above
// it: the tail is the highest percentile that still has this many
// samples beyond it, so it never rests on a handful of outliers.
const tailBeyond = 10

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle value (mean of the two middle values for an even
// count); NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean is the arithmetic mean; NaN for no samples.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quartiles returns the three cut points dividing xs into four equal
// groups, computed exactly as Python's statistics.quantiles(xs, n=4)
// (its default "exclusive" method), so the spreads printed here match
// the ones an external checker computes from the same values. It needs
// at least two samples; fewer yield NaN.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	const n = 4
	if len(xs) < 2 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	s := sortedCopy(xs)
	ld := len(s)
	m := ld + 1
	var out [n - 1]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		out[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return out[0], out[1], out[2]
}

// rate is the throughput of one closed-loop client over back-to-back
// samples: samples per second of their summed time (in ms). NaN for no
// samples.
func rate(ms []float64) float64 {
	if len(ms) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range ms {
		sum += x
	}
	return 1000 * float64(len(ms)) / sum
}

// relSpread is the interquartile distance as a share of the median: the
// steadiness figure a metric's bound is checked against.
func relSpread(xs []float64) float64 {
	q1, _, q3 := quartiles(xs)
	med := median(xs)
	if med == 0 {
		if q3 == q1 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(q3-q1) / math.Abs(med)
}

// tailStat is a tail latency with the evidence behind it.
type tailStat struct {
	Value float64 // the sample at the tail rank
	Pct   float64 // the percentile that rank is, in [0, 100]
	N     int     // samples in the distribution
	OK    bool    // false when fewer than tailBeyond+1 samples exist
}

// tail returns the highest percentile with at least tailBeyond samples
// beyond it: with n sorted samples, the value at rank n-tailBeyond
// (1-based), which is the nearest-rank percentile 100·(n-tailBeyond)/n.
// With too few samples it falls back to the maximum and reports !OK.
func tail(xs []float64) tailStat {
	n := len(xs)
	if n == 0 {
		return tailStat{Value: math.NaN()}
	}
	s := sortedCopy(xs)
	if n <= tailBeyond {
		return tailStat{Value: s[n-1], Pct: 100, N: n}
	}
	rank := n - tailBeyond
	return tailStat{Value: s[rank-1], Pct: 100 * float64(rank) / float64(n), N: n, OK: true}
}

// spanRec is one recorded span in the benchmark's span file.
type spanRec struct {
	TraceID string    `json:"trace_id"`
	SpanID  string    `json:"span_id"`
	Parent  string    `json:"parent,omitempty"`
	Name    string    `json:"name"`
	Start   time.Time `json:"start"`
	End     time.Time `json:"end"`
}

// selfTimes sums, per span name, each span's self time: its duration
// minus the part of its interval covered by its children (children
// clipped to the parent, overlapping children counted once). Children
// are matched by (trace, parent span) so spans of different traces never
// mix.
func selfTimes(spans []spanRec) map[string]time.Duration {
	type key struct{ trace, span string }
	children := map[key][]int{}
	for i, s := range spans {
		if s.Parent != "" {
			k := key{s.TraceID, s.Parent}
			children[k] = append(children[k], i)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		dur := s.End.Sub(s.Start)
		if dur < 0 {
			dur = 0
		}
		var iv [][2]time.Time
		for _, ci := range children[key{s.TraceID, s.SpanID}] {
			c := spans[ci]
			lo, hi := c.Start, c.End
			if lo.Before(s.Start) {
				lo = s.Start
			}
			if hi.After(s.End) {
				hi = s.End
			}
			if hi.After(lo) {
				iv = append(iv, [2]time.Time{lo, hi})
			}
		}
		out[s.Name] += dur - covered(iv)
	}
	return out
}

// covered is the total length of the union of the intervals.
func covered(iv [][2]time.Time) time.Duration {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0].Before(iv[j][0]) })
	var total time.Duration
	var curLo, curHi time.Time
	for i, x := range iv {
		if i == 0 || x[0].After(curHi) {
			if i > 0 {
				total += curHi.Sub(curLo)
			}
			curLo, curHi = x[0], x[1]
			continue
		}
		if x[1].After(curHi) {
			curHi = x[1]
		}
	}
	if len(iv) > 0 {
		total += curHi.Sub(curLo)
	}
	return total
}
