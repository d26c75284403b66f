// Command perfbench measures the mapping pipeline and the mapping service
// end to end and layer by layer, on three workloads (see README.md):
//
//	perfbench --workload search-heavy --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// With --trace 0 the metrics are the end-to-end ones, measured with no
// observer and tracing off; with --trace 1 they are the per-layer ones,
// from a traced pass whose spans are written to
// .bench_build/spans/<workload>-<seed>.json.
//
// --steady k runs the workload k times in fresh processes (seeds seed …
// seed+k-1) and prints each metric's median, quartiles and relative
// spread, flagging spreads wider than their bound in BENCHMARK.json.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"
)

const (
	// A pass stops setupStops times, spread over it, to take
	// setupsPerStop set-up samples back to back; the reported set-up time
	// is the median of all of them. Each stop collects the heap, which
	// also empties the pipeline's simulator pool, so the samples are
	// taken in few stops.
	setupStops    = 16
	setupsPerStop = 2
	setupSamples  = setupStops * setupsPerStop
	// A set-up sample is the mean of a burst of back-to-back set-ups:
	// enough to fill setupBurst, at least one.
	setupBurst = 20 * time.Millisecond
	// warmupRounds is how many untimed rounds over the job list (library
	// workloads, unless one sets its own) or blocks (service-mix) precede
	// timing: they fault the heap in and fill the session's simulator
	// pool.
	warmupRounds = 3
	// minSamples is the least number of timed samples a pass takes,
	// however short the run: enough for a tail with tailBeyond samples
	// beyond it.
	minSamples = 3 * tailBeyond
)

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig is one run's settings.
type runConfig struct {
	seed    int64
	seconds time.Duration
	trace   bool
}

// outcome is what a workload run measured and checked.
type outcome struct {
	e2e        map[string]metric
	layers     map[string]metric
	attempted  int
	failed     int
	mismatches []string
	tail       tailStat
	spans      []spanRec
	notes      []string
}

var workloads = map[string]func(context.Context, runConfig) (*outcome, error){
	"search-heavy": func(ctx context.Context, cfg runConfig) (*outcome, error) {
		return runLibrary(ctx, searchHeavy, cfg)
	},
	"replay-heavy": func(ctx context.Context, cfg runConfig) (*outcome, error) {
		return runLibrary(ctx, replayHeavy, cfg)
	},
	"service-mix": runServiceMix,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func main() {
	workload := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 20, "run length in seconds: sizes the job list to take about this long on the reference machine")
	trace := flag.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics")
	steady := flag.Int("steady", 0, "run the workload this many times in fresh processes and report each metric's spread")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (known: %s)\n", *workload, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be ≥ 1 and --trace 0 or 1")
		os.Exit(2)
	}
	st := readStamp(*workload, *seed)
	stampLine, _ := json.Marshal(st)
	fmt.Printf("# stamp %s\n", stampLine)
	if *steady > 0 {
		if err := steadyReport(*workload, *seed, *seconds, *trace, *steady); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}

	cfg := runConfig{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1}
	out, err := run(context.Background(), cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, m := range out.mismatches {
		fmt.Printf("# MISMATCH %s\n", m)
	}
	for _, n := range out.notes {
		fmt.Printf("# %s\n", n)
	}
	metrics := out.e2e
	if !cfg.trace {
		fmt.Printf("# job_tail_ms is p%.1f of %d samples (%d beyond it)\n", out.tail.Pct, out.tail.N, tailBeyond)
	} else {
		metrics = out.layers
		path := fmt.Sprintf(".bench_build/spans/%s-%d.json", *workload, *seed)
		if err := writeSpans(path, st, out.spans); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
			os.Exit(1)
		}
		fmt.Printf("# spans: %d written to %s\n", len(out.spans), path)
	}
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("# %-28s %14.6g %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
	res := result{
		Correct:   len(out.mismatches) == 0 && out.failed == 0 && out.tail.OK,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   metrics,
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encoding result:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// blocksFor sizes a pass's job list: the number of blocks that fill the
// given time on the reference machine (2 vCPU, where one block takes
// blockSeconds), and at least minBlocks. The list is fixed before the
// pass starts, so every run of a seed does the same work however fast
// the program is.
func blocksFor(d time.Duration, blockSeconds float64, minBlocks int) int {
	return max(minBlocks, int(math.Round(d.Seconds()/blockSeconds)))
}

// setupTimer times a set-up the way jobs are timed: many samples spread
// over the measured pass, reduced to their median, so the set-up time
// sees the same phases of the machine as the jobs.
type setupTimer struct {
	once    func() (time.Duration, error)
	burst   int
	samples []float64
}

// newSetupTimer does one untimed set-up and sizes the bursts from it.
func newSetupTimer(once func() (time.Duration, error)) (*setupTimer, error) {
	first, err := once()
	if err != nil {
		return nil, err
	}
	st := &setupTimer{once: once, burst: 1}
	if first > 0 {
		st.burst = max(1, min(int(setupBurst/first), 1000))
	}
	return st, nil
}

// sample takes one sample. It collects the heap before and after, so
// garbage of the jobs does not put a GC into the set-ups and garbage of
// the set-ups does not put one into the jobs.
func (st *setupTimer) sample() error {
	runtime.GC()
	var total time.Duration
	for b := 0; b < st.burst; b++ {
		d, err := st.once()
		if err != nil {
			return err
		}
		total += d
	}
	st.samples = append(st.samples, total.Seconds()/float64(st.burst))
	runtime.GC()
	return nil
}

// seconds is the median sample.
func (st *setupTimer) seconds() float64 { return median(st.samples) }

// setupsAfter is how many set-up samples to take after block b (0-based)
// of a pass of the given number of blocks: setupStops stops spread
// evenly over the pass (several after a block when the pass has fewer
// blocks), setupsPerStop samples each.
func setupsAfter(b, blocks int) int {
	return setupsPerStop * ((b+1)*setupStops/blocks - b*setupStops/blocks)
}

// meter sums the heap allocations and GC CPU time of the job runs of a
// pass, leaving out what runs between pause and resume (set-up samples,
// pre-warming requests).
type meter struct {
	allocB uint64
	gcCPU  float64 // seconds
	alloc0 uint64
	gcCPU0 float64
}

func (m *meter) resume() { m.alloc0, m.gcCPU0 = memCounters() }

func (m *meter) pause() {
	a, g := memCounters()
	m.allocB += a - m.alloc0
	m.gcCPU += g - m.gcCPU0
}

// memCounters reads the process's cumulative allocated bytes and GC CPU
// seconds.
func memCounters() (allocBytes uint64, gcCPUSeconds float64) {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindUint64 {
		allocBytes = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		gcCPUSeconds = s[1].Value.Float64()
	}
	return allocBytes, gcCPUSeconds
}

// peakRSSMB is the process's maximum resident set size so far, in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
