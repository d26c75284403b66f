package main

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"time"

	snnmap "repro"
)

// sessionSpec names one warm mapping session: an application registry
// spec and the architecture it is mapped onto.
type sessionSpec struct {
	app  string
	cfg  snnmap.AppConfig
	arch string
	spec snnmap.ArchSpec
}

// libJob is one mapping job on the workload's session: a partitioner
// registry name and its configuration.
type libJob struct {
	technique string
	pspec     snnmap.PartitionerSpec
}

func (j libJob) label() string {
	if j.pspec.Seed != 0 {
		return fmt.Sprintf("%s/seed=%d", j.technique, j.pspec.Seed)
	}
	return j.technique
}

// libWorkload is a workload that drives the library's Pipeline
// directly, one job at a time.
type libWorkload struct {
	session sessionSpec
	// jobs returns the workload's deterministic job list for a seed.
	jobs func(rng *rand.Rand) []libJob
	// blockSeconds is the time one run of every job takes on the
	// reference machine.
	blockSeconds float64
	// warmup is the number of untimed rounds over the job list before
	// timing.
	warmup int
}

// searchHeavy is the paper's PSO over many seeds on a synthetic modular
// network: 512 neurons in 8 clusters on 13 crossbars of 40 neurons.
// A 100 ms characterization keeps the replay short, so the swarm's
// fitness evaluations (which do not depend on the run length) dominate.
// A 40 × 40 swarm makes a job about half a second long: a host slow
// phase of a few seconds then stretches a few jobs by its mean, and the
// tail (10 jobs beyond it, near p75 of a 20 s run) rests on a quarter of
// the run rather than on its slowest second.
var searchHeavy = libWorkload{
	session: sessionSpec{
		app:  "gen:modular:n=512,dur=100,seed=1",
		cfg:  snnmap.AppConfig{Seed: 1},
		arch: "tree",
		spec: snnmap.ArchSpec{CrossbarSize: 40},
	},
	jobs: func(rng *rand.Rand) []libJob {
		jobs := make([]libJob, 4)
		for i := range jobs {
			jobs[i] = libJob{technique: "pso", pspec: snnmap.PartitionerSpec{
				Seed: 1 + rng.Int63n(1<<31), SwarmSize: 40, Iterations: 40, Workers: 1,
			}}
		}
		return jobs
	},
	blockSeconds: 2,
	warmup:       1,
}

// replayHeavy is the paper's digit-recognition application (HD: 1284
// neurons, 258k synapses) under the deterministic partitioners, scored
// by the library's default trace-based analysis. The characterization
// is 150 ms of digit presentation, which keeps a job near 150 ms. The
// three partitioners cost apart, so the job times fall in three equal
// classes; the tail (10 samples beyond it) lies above p90, far from the
// class boundary at p67.
var replayHeavy = libWorkload{
	session: sessionSpec{
		app:  "HD",
		cfg:  snnmap.AppConfig{Seed: 1, DurationMs: 150},
		arch: "tree",
	},
	jobs: func(rng *rand.Rand) []libJob {
		jobs := []libJob{{technique: "greedy"}, {technique: "hypercut"}, {technique: "neutrams"}}
		rng.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
		return jobs
	},
	blockSeconds: 0.42,
	warmup:       warmupRounds,
}

// buildSession constructs one session as a user would: BuildApp, then
// NewArch, then NewPipeline, each inside a span when tracing.
func buildSession(tr *tracer, s sessionSpec, opts ...snnmap.Option) (*snnmap.Pipeline, error) {
	root := tr.root("setup")
	defer root.End()
	sp := root.StartChild("apps.build")
	app, err := snnmap.BuildApp(s.app, s.cfg)
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("building %s: %w", s.app, err)
	}
	sp = root.StartChild("hardware.arch")
	arch, err := snnmap.NewArch(s.arch, app.Graph, s.spec)
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("sizing %s for %s: %w", s.arch, s.app, err)
	}
	sp = root.StartChild("pipeline.new")
	pl, err := snnmap.NewPipeline(app, arch, opts...)
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("session %s on %s: %w", s.app, s.arch, err)
	}
	return pl, nil
}

// newSessionTimer times building the workload's session.
func newSessionTimer(tr *tracer, session sessionSpec) (*setupTimer, error) {
	return newSetupTimer(func() (time.Duration, error) {
		start := time.Now()
		_, err := buildSession(tr, session)
		return time.Since(start), err
	})
}

// libPass is what one measured pass over a library workload produced.
type libPass struct {
	samples   []float64 // ms, one per timed run
	rates     []float64 // jobs/s, one per round over the job list
	runs      int       // timed job runs
	failed    int
	use       meter   // allocations and GC CPU of the job runs
	peakMB    float64 // process max RSS when the pass ended, set-ups included
	mismatch  []string
	reference []*snnmap.Report // per distinct job, from the warm-up
}

// runLibPass runs warmup untimed rounds over the job list, then
// times blocks rounds over it, each round in a seeded order. Set-up
// samples are taken in stops spread over the pass (setupsAfter); their
// allocations and GC work are left out of the pass's. Every timed run is
// checked outside its timed region: its assignment must satisfy the
// capacity constraints and its report must equal the job's first
// warm-up report bit for bit.
func runLibPass(ctx context.Context, pl *snnmap.Pipeline, jobs []libJob, order *rand.Rand, warmup, blocks int, tr *tracer, setup *setupTimer) (*libPass, error) {
	pts := make([]snnmap.Partitioner, len(jobs))
	for i, j := range jobs {
		pt, err := snnmap.NewPartitioner(j.technique, j.pspec)
		if err != nil {
			return nil, err
		}
		pts[i] = pt
	}
	p := &libPass{reference: make([]*snnmap.Report, len(jobs))}
	for r := 0; r < warmup; r++ {
		for i, j := range jobs {
			rep, err := pl.Run(ctx, pts[i])
			if err != nil {
				return nil, fmt.Errorf("warm-up %s: %w", j.label(), err)
			}
			if r > 0 {
				continue
			}
			if err := pl.Problem().Validate(rep.Assignment); err != nil {
				p.mismatch = append(p.mismatch, fmt.Sprintf("%s: warm-up assignment invalid: %v", j.label(), err))
			}
			p.reference[i] = rep
		}
	}

	idx := make([]int, len(jobs))
	for i := range idx {
		idx[i] = i
	}
	runtime.GC()
	p.use.resume()
	for b := 0; b < blocks; b++ {
		order.Shuffle(len(idx), func(x, y int) { idx[x], idx[y] = idx[y], idx[x] })
		first := len(p.samples)
		for _, i := range idx {
			j := jobs[i]
			ms, rep, err := timedRun(ctx, tr, pl, pts[i])
			p.runs++
			if err != nil {
				p.failed++
				p.mismatch = append(p.mismatch, fmt.Sprintf("%s: %v", j.label(), err))
				continue
			}
			if msg := checkReport(pl, rep, p.reference[i]); msg != "" {
				p.failed++
				p.mismatch = append(p.mismatch, j.label()+": "+msg)
				continue
			}
			p.samples = append(p.samples, ms)
		}
		p.rates = append(p.rates, rate(p.samples[first:]))
		if k := setupsAfter(b, blocks); k > 0 {
			// The GC that collects the jobs' garbage counts toward them.
			runtime.GC()
			p.use.pause()
			for ; k > 0; k-- {
				if err := setup.sample(); err != nil {
					return nil, err
				}
			}
			p.use.resume()
		}
	}
	p.use.pause()
	p.peakMB = peakRSSMB()
	return p, nil
}

// timedRun times one Pipeline.Run. With a recorder it also records the
// job span and, from the pipeline's stage events, one child span per
// stage.
func timedRun(ctx context.Context, tr *tracer, pl *snnmap.Pipeline, pt snnmap.Partitioner) (float64, *snnmap.Report, error) {
	if tr == nil {
		start := time.Now()
		rep, err := pl.Run(ctx, pt)
		return float64(time.Since(start)) / float64(time.Millisecond), rep, err
	}
	root := tr.root("pipeline.job")
	observer := snnmap.ObserverFunc(func(ev snnmap.StageEvent) {
		end := time.Now()
		root.StartChildAt(stageSpanName[ev.Stage], end.Add(-ev.Elapsed)).EndAt(end)
	})
	start := time.Now()
	rep, err := pl.RunObserved(ctx, pt, observer)
	elapsed := time.Since(start)
	root.EndAt(start.Add(elapsed))
	return float64(elapsed) / float64(time.Millisecond), rep, err
}

// stageSpanName maps the pipeline's stages onto the layer each one runs
// in.
var stageSpanName = map[snnmap.Stage]string{
	snnmap.StagePartition: "partition.solve",
	snnmap.StagePlace:     "partition.place",
	snnmap.StageSimulate:  "noc.replay",
	snnmap.StageAnalyze:   "metrics.analyze",
}

// checkReport verifies one run: the assignment satisfies the paper's
// Eq. 4–5 capacity constraints and the report equals the reference bit
// for bit. It returns "" when the run is correct.
func checkReport(pl *snnmap.Pipeline, rep, ref *snnmap.Report) string {
	if err := pl.Problem().Validate(rep.Assignment); err != nil {
		return fmt.Sprintf("assignment invalid: %v", err)
	}
	if !reflect.DeepEqual(rep, ref) {
		return fmt.Sprintf("report differs from the first run (energy %v vs %v pJ, ISI %v vs %v cycles)",
			rep.GlobalEnergyPJ, ref.GlobalEnergyPJ, rep.Metrics.ISIAvgCycles, ref.Metrics.ISIAvgCycles)
	}
	return ""
}

// checkStreaming re-runs every distinct job on a fresh session built with
// WithStreamingDelivery(true) and requires the interconnect statistics,
// energies and SNN metrics to equal the measured reports bit for bit.
func checkStreaming(ctx context.Context, session sessionSpec, jobs []libJob, refs []*snnmap.Report) ([]string, error) {
	pl, err := buildSession(nil, session, snnmap.WithStreamingDelivery(true))
	if err != nil {
		return nil, err
	}
	var bad []string
	for i, j := range jobs {
		pt, err := snnmap.NewPartitioner(j.technique, j.pspec)
		if err != nil {
			return nil, err
		}
		rep, err := pl.Run(ctx, pt)
		if err != nil {
			bad = append(bad, fmt.Sprintf("%s: streaming run: %v", j.label(), err))
			continue
		}
		ref := refs[i]
		if rep.NoC != ref.NoC || rep.Metrics != ref.Metrics ||
			rep.GlobalEnergyPJ != ref.GlobalEnergyPJ || rep.LocalEnergyPJ != ref.LocalEnergyPJ ||
			rep.GlobalTraffic != ref.GlobalTraffic || !reflect.DeepEqual(rep.Assignment, ref.Assignment) {
			bad = append(bad, fmt.Sprintf("%s: streaming result differs (ISI %v vs %v cycles, delivered %d vs %d)",
				j.label(), rep.Metrics.ISIAvgCycles, ref.Metrics.ISIAvgCycles, rep.NoC.Delivered, ref.NoC.Delivered))
		}
	}
	return bad, nil
}

// runLibrary runs a library workload: an untraced measured pass for the
// end-to-end metrics and, when tracing, a traced pass for the per-layer
// ones. The set-up is timed between the job rounds of each pass.
func runLibrary(ctx context.Context, w libWorkload, cfg runConfig) (*outcome, error) {
	pl, err := buildSession(nil, w.session)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	jobs := w.jobs(rng)

	pass := cfg.seconds
	if cfg.trace {
		pass /= 2
	}
	blocks := blocksFor(pass, w.blockSeconds, (minSamples+len(jobs)-1)/len(jobs))
	setup, err := newSessionTimer(nil, w.session)
	if err != nil {
		return nil, err
	}
	plain, err := runLibPass(ctx, pl, jobs, rng, w.warmup, blocks, nil, setup)
	if err != nil {
		return nil, err
	}
	out := &outcome{attempted: plain.runs, failed: plain.failed, mismatches: plain.mismatch}
	bad, err := checkStreaming(ctx, w.session, jobs, plain.reference)
	if err != nil {
		return nil, err
	}
	out.mismatches = append(out.mismatches, bad...)

	ms := plain.samples
	var energy, isi []float64
	for _, rep := range plain.reference {
		energy = append(energy, rep.GlobalEnergyPJ/1e6)
		isi = append(isi, rep.Metrics.ISIAvgCycles)
	}
	t := tail(ms)
	out.tail = t
	if !cfg.trace {
		out.e2e = map[string]metric{
			"setup_s":               {setup.seconds(), "s"},
			"job_p50_ms":            {median(ms), "ms"},
			"job_tail_ms":           {t.Value, "ms"},
			"jobs_per_s":            {median(plain.rates), "1/s"},
			"peak_rss_mb":           {plain.peakMB, "MB"},
			"alloc_mb_per_job":      {float64(plain.use.allocB) / float64(plain.runs) / (1 << 20), "MB"},
			"ok_ratio":              {float64(plain.runs-plain.failed) / float64(plain.runs), "ratio"},
			"global_energy_uj":      {mean(energy), "uJ"},
			"isi_distortion_cycles": {mean(isi), "cycles"},
		}
		return out, nil
	}

	tr := newTracer()
	tracedSetup, err := newSessionTimer(tr, w.session)
	if err != nil {
		return nil, err
	}
	traced, err := runLibPass(ctx, pl, jobs, rng, w.warmup, blocks, tr, tracedSetup)
	if err != nil {
		return nil, err
	}
	out.attempted += traced.runs
	out.failed += traced.failed
	out.mismatches = append(out.mismatches, traced.mismatch...)
	out.spans = tr.spans()
	self := selfTimes(out.spans)
	perJob := func(name string) float64 {
		return float64(self[name]) / float64(time.Millisecond) / float64(traced.runs)
	}
	perSetup := func(name string) float64 {
		return float64(self[name]) / float64(time.Millisecond) / float64(countSpans(out.spans, "setup"))
	}
	var deliveries float64
	for _, rep := range traced.reference {
		deliveries += float64(rep.NoC.Delivered)
	}
	deliveries /= float64(len(traced.reference))
	replay := perJob("noc.replay")
	out.layers = map[string]metric{
		"apps.build_ms":             {perSetup("apps.build"), "ms"},
		"pipeline.new_ms":           {perSetup("pipeline.new"), "ms"},
		"partition.solve_ms":        {perJob("partition.solve"), "ms"},
		"partition.place_ms":        {perJob("partition.place"), "ms"},
		"noc.replay_ms":             {replay, "ms"},
		"noc.deliveries":            {deliveries, "count"},
		"noc.ns_per_delivery":       {replay * 1e6 / deliveries, "ns"},
		"metrics.analyze_ms":        {perJob("metrics.analyze"), "ms"},
		"runtime.gc_cpu_ms_per_job": {traced.use.gcCPU * 1000 / float64(traced.runs), "ms"},
		"pipeline.other_ms":         {perJob("pipeline.job"), "ms"},
		"pipeline.job_ms":           {spanTotalMS(out.spans, "pipeline.job") / float64(traced.runs), "ms"},
		"trace.overhead_pct":        {(median(traced.samples)/median(ms) - 1) * 100, "%"},
		"service.submit_ms":         {0, "ms"},
		"service.queue_wait_ms":     {0, "ms"},
		"service.session_ms":        {0, "ms"},
		"service.run_ms":            {0, "ms"},
		"service.result_ms":         {0, "ms"},
		"service.cache_hit_ratio":   {0, "ratio"},
		"service.pool_hit_ratio":    {0, "ratio"},
		"service.shed_ratio":        {0, "ratio"},
		"fleet.proxy_ms":            {0, "ms"},
	}
	return out, nil
}
