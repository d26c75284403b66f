package main

import (
	"math"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[n-1-i] = float64(i + 1) // descending, so sorting is exercised
	}
	return xs
}

func TestTailLeavesTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		pct  float64
	}{
		{11, 1, 100.0 / 11},
		{20, 10, 50},
		{100, 90, 90},
		{1000, 990, 99},
	} {
		got := tail(seq(tc.n))
		if !got.OK || got.Value != tc.want || math.Abs(got.Pct-tc.pct) > 1e-9 || got.N != tc.n {
			t.Errorf("tail(1..%d) = %+v, want value %v at p%v", tc.n, got, tc.want, tc.pct)
		}
		beyond := 0
		for _, x := range seq(tc.n) {
			if x > got.Value {
				beyond++
			}
		}
		if beyond != tailBeyond {
			t.Errorf("tail(1..%d) leaves %d samples beyond it, want %d", tc.n, beyond, tailBeyond)
		}
	}
}

func TestTailTooFewSamples(t *testing.T) {
	got := tail(seq(10))
	if got.OK || got.Value != 10 {
		t.Errorf("tail of 10 samples = %+v, want the maximum and !OK", got)
	}
	if got := tail(nil); got.OK || !math.IsNaN(got.Value) {
		t.Errorf("tail of no samples = %+v, want NaN and !OK", got)
	}
}

// The expected values are what Python's statistics.quantiles(xs, n=4)
// returns for the same inputs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{seq(10), 2.75, 5.5, 8.25},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2, 3, 4, 5, 6, 7}, 2, 4, 6},
		{[]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110}, 30, 60, 90},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q2-tc.q2) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
	if q1, _, _ := quartiles([]float64{1}); !math.IsNaN(q1) {
		t.Errorf("quartiles of one sample = %v, want NaN", q1)
	}
}

func TestMedianAndSpread(t *testing.T) {
	if m := median([]float64{5, 1, 3}); m != 3 {
		t.Errorf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
	// quartiles 2.75 and 8.25 around a median of 5.5.
	if s := relSpread(seq(10)); math.Abs(s-1) > 1e-12 {
		t.Errorf("relSpread(1..10) = %v, want 1", s)
	}
	if s := relSpread([]float64{7, 7, 7, 7}); s != 0 {
		t.Errorf("relSpread of equal values = %v, want 0", s)
	}
}

func TestSelfTimes(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	spans := []spanRec{
		{TraceID: "a", SpanID: "job", Name: "job", Start: at(0), End: at(100)},
		// Two overlapping children cover [10, 50): 40 ms.
		{TraceID: "a", SpanID: "p", Parent: "job", Name: "partition", Start: at(10), End: at(40)},
		{TraceID: "a", SpanID: "q", Parent: "job", Name: "partition", Start: at(30), End: at(50)},
		// A child running past its parent is clipped to [90, 100): 10 ms.
		{TraceID: "a", SpanID: "r", Parent: "job", Name: "replay", Start: at(90), End: at(120)},
		// The same span ID in another trace is a different span.
		{TraceID: "b", SpanID: "x", Parent: "job", Name: "replay", Start: at(0), End: at(100)},
		// A grandchild only reduces its own parent.
		{TraceID: "a", SpanID: "g", Parent: "p", Name: "inner", Start: at(15), End: at(20)},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"job":       50 * time.Millisecond,
		"partition": 25*time.Millisecond + 20*time.Millisecond,
		"replay":    30*time.Millisecond + 100*time.Millisecond,
		"inner":     5 * time.Millisecond,
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self time of %s = %v, want %v", name, got[name], w)
		}
	}
}

func TestRate(t *testing.T) {
	if got := rate([]float64{100, 300, 200}); math.Abs(got-5) > 1e-12 {
		t.Errorf("rate of 3 jobs in 600 ms = %v, want 5/s", got)
	}
	if got := rate(nil); !math.IsNaN(got) {
		t.Errorf("rate of no samples = %v, want NaN", got)
	}
}

func TestSetupsAfterSpreadsEvenly(t *testing.T) {
	for _, blocks := range []int{1, 7, 10, setupStops, setupSamples, 48, 67, 1000} {
		total, most, least := 0, 0, setupSamples
		for b := 0; b < blocks; b++ {
			k := setupsAfter(b, blocks)
			total += k
			most, least = max(most, k), min(least, k)
		}
		if total != setupSamples {
			t.Errorf("%d blocks: %d set-up samples, want %d", blocks, total, setupSamples)
		}
		if blocks <= setupStops && most-least > setupsPerStop {
			t.Errorf("%d blocks: between %d and %d samples after a block, want an even spread", blocks, least, most)
		}
		if blocks >= setupStops && most > setupsPerStop {
			t.Errorf("%d blocks: %d samples after one block, want at most one stop", blocks, most)
		}
	}
}
