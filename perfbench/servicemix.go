package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	snnmap "repro"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/service"
)

// Service-mix shape. The client sends blocks of mixBlock requests, each
// block on two new modular-network instances, W and C, and each miss
// maps its instance under all of mixTechniques in one job:
//
//	slot 0  warm miss: W; W's session was built on both workers before
//	        the block, by untimed requests for W under mixPrewarm alone
//	slot 1  cold miss: C; no worker has C's session, so the one it is
//	        routed to builds it
//	slot 2  hit: an exact repeat of slot 0 or 1, answered from the
//	        result cache
//
// The pre-warming makes every slot's class the same whatever worker the
// content address routes it to: hits, warm misses and cold misses are a
// third of the requests each, so the median lies in the warm class, 17
// points from both of its boundaries. The pre-warming requests go to the
// workers directly and are left out of every count. The first
// warmupRounds blocks are warm-up and are not measured. The measured
// blocks are fixed from the run length (mixBlockSeconds), so every run
// of a seed sends the same requests.
const (
	mixWorkers = 2
	mixBlock   = 3
	// mixBlockSeconds is the time one block, pre-warming included,
	// takes on the reference machine.
	mixBlockSeconds = 0.45
	// mixPrewarm is the partitioner of the pre-warming requests.
	mixPrewarm = "greedy"
)

// mixTechniques are the partitioners every miss runs, in one job. Three
// of them make a miss a few hundred ms long, so a 20 s run measures
// about a hundred requests and the tail (10 beyond it) rests on the
// slowest sixth of the misses rather than on a few outliers.
var mixTechniques = []string{"greedy", "hypercut", "pacman"}

// mixPlan generates the deterministic request stream of one seed. The
// network instances are the same for every seed of a run length: pair k
// is instances 2k+1 (W) and 2k+2 (C). The seed orders the pairs over
// the measured blocks and picks each block's repeated slot. Modular
// networks cost up to twice as much as one another, so instances drawn
// from the seed would move the tail from seed to seed.
type mixPlan struct {
	seed  int64
	order []int // measured block → instance pair
}

func newMixPlan(seed int64, blocks int) mixPlan {
	return mixPlan{seed: seed, order: rand.New(rand.NewSource(seed)).Perm(blocks)}
}

// pair is a block's instance pair; the warm-up blocks use pairs past
// the measured ones.
func (p mixPlan) pair(block int) int {
	if block < warmupRounds {
		return len(p.order) + block
	}
	return p.order[block-warmupRounds]
}

// appSpec is a block's instance W (cold false) or C (cold true): unique
// per block, so every block uses new sessions.
func (p mixPlan) appSpec(block int, cold bool) string {
	inst := 2*p.pair(block) + 1
	if cold {
		inst++
	}
	return fmt.Sprintf("gen:modular:dur=1000,n=256,seed=%d", inst)
}

// prewarm is the request that builds W's session on a worker before the
// block: W under mixPrewarm alone, which no measured request asks for.
func (p mixPlan) prewarm(block int) snnmap.JobSpec {
	return snnmap.JobSpec{App: p.appSpec(block, false), Arch: "tree", Techniques: []string{mixPrewarm}}
}

// spec returns one request of a block and its latency class. The client
// is sequential, so the repeated request has completed and its result is
// cached on the worker the repeat is routed to (routing follows the
// content address).
func (p mixPlan) spec(block, slot int) (snnmap.JobSpec, string) {
	class := map[int]string{0: "warm", 1: "cold"}[slot]
	if slot == mixBlock-1 {
		// The repeated slot alternates with the block.
		slot = int((p.seed + int64(block)) & 1)
		class = "hit"
	}
	techniques := append([]string(nil), mixTechniques...)
	return snnmap.JobSpec{App: p.appSpec(block, slot == 1), Arch: "tree", Techniques: techniques}, class
}

// cluster is the in-process deployment: two single-executor workers on
// loopback listeners behind one fleet router.
type cluster struct {
	workers []*service.Server
	peers   []string // the workers' base URLs
	servers []*http.Server
	router  *fleet.Router
	base    string
	serving sync.WaitGroup
}

func startCluster(tracing bool) (*cluster, error) {
	c := &cluster{}
	for i := 0; i < mixWorkers; i++ {
		w := service.New(service.Config{Workers: 1, TracingDisabled: !tracing, TraceCap: tracerCap})
		c.workers = append(c.workers, w)
		addr, err := c.serve(w.Handler())
		if err != nil {
			c.stop()
			return nil, err
		}
		c.peers = append(c.peers, addr)
	}
	// Health probes are off the measured path: the probe interval is
	// longer than any run, and members start alive.
	rt, err := fleet.NewRouter(fleet.RouterConfig{
		Peers: c.peers, ProbeInterval: time.Hour, TracingDisabled: !tracing, TraceCap: tracerCap,
	})
	if err != nil {
		c.stop()
		return nil, err
	}
	rt.Start()
	c.router = rt
	c.base, err = c.serve(rt.Handler())
	if err != nil {
		c.stop()
		return nil, err
	}
	return c, nil
}

// serve starts an HTTP server for h on a fresh loopback port.
func (c *cluster) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	c.servers = append(c.servers, srv)
	c.serving.Add(1)
	go func() {
		defer c.serving.Done()
		_ = srv.Serve(ln) // returns http.ErrServerClosed on shutdown
	}()
	return "http://" + ln.Addr().String(), nil
}

// stop shuts every server down and waits for them and the workers.
func (c *cluster) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i := len(c.servers) - 1; i >= 0; i-- {
		_ = c.servers[i].Shutdown(ctx)
	}
	c.serving.Wait()
	if c.router != nil {
		c.router.Close()
	}
	for _, w := range c.workers {
		_ = w.Drain(ctx)
	}
}

// stats sums the workers' counters.
func (c *cluster) stats() service.Stats {
	var t service.Stats
	for _, w := range c.workers {
		t = addStats(t, w.Snapshot())
	}
	return t
}

// newClusterTimer times starting the cluster; each cluster is stopped,
// untimed, right after it started.
func newClusterTimer() (*setupTimer, error) {
	return newSetupTimer(func() (time.Duration, error) {
		start := time.Now()
		c, err := startCluster(false)
		d := time.Since(start)
		if err != nil {
			return 0, err
		}
		c.stop()
		return d, nil
	})
}

// mixReq is one completed request.
type mixReq struct {
	block, slot int
	spec        snnmap.JobSpec
	class       string // "hit", "warm" or "cold"
	id, hash    string
	ms          float64
	body        []byte
	trace       obs.TraceID
	err         error
}

// mixClient is a closed-loop client with its own connection to one
// server.
type mixClient struct {
	http *http.Client
	base string
}

func newMixClient(base string) *mixClient {
	return &mixClient{base: base, http: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}}
}

// do submits one spec, awaits completion on the SSE stream unless the
// submission was answered done, and fetches the JSON result.
func (mc *mixClient) do(ctx context.Context, tr *tracer, r *mixReq) {
	root := tr.root("client.request")
	defer root.End()
	r.trace = root.Context().TraceID
	start := time.Now()
	defer func() { r.ms = float64(time.Since(start)) / float64(time.Millisecond) }()

	body, err := json.Marshal(r.spec)
	if err != nil {
		r.err = err
		return
	}
	sp := root.StartChild("client.submit")
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, mc.base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		r.err = err
		return
	}
	obs.Inject(req.Header, sp)
	var st service.JobStatus
	code, err := mc.json(req, &st)
	sp.End()
	if err != nil {
		r.err = err
		return
	}
	if code != http.StatusOK && code != http.StatusAccepted {
		r.err = fmt.Errorf("submit answered %d", code)
		return
	}
	r.id, r.hash = st.ID, st.Hash
	if st.State != service.JobDone {
		sp = root.StartChild("client.await")
		state, err := mc.await(ctx, st.ID)
		sp.End()
		if err != nil {
			r.err = err
			return
		}
		if state != service.JobDone {
			r.err = fmt.Errorf("job %s ended %s", st.ID, state)
			return
		}
	}
	sp = root.StartChild("client.result")
	r.body, r.err = mc.get(ctx, "/v1/jobs/"+st.ID+"/result")
	sp.End()
}

// json sends req and decodes a JSON body into v.
func (mc *mixClient) json(req *http.Request, v any) (int, error) {
	resp, err := mc.http.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.Unmarshal(data, v); err != nil {
			return resp.StatusCode, fmt.Errorf("decoding %s: %w", req.URL.Path, err)
		}
	}
	return resp.StatusCode, nil
}

// get fetches a path and returns its body, failing on a non-200 answer.
func (mc *mixClient) get(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, mc.base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := mc.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s answered %d: %s", path, resp.StatusCode, strings.TrimSpace(string(data)))
	}
	return data, nil
}

// await reads the job's SSE stream to its end and returns the last state
// the stream reported.
func (mc *mixClient) await(ctx context.Context, id string) (service.JobState, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, mc.base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return "", err
	}
	resp, err := mc.http.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("events answered %d", resp.StatusCode)
	}
	var state service.JobState
	inState := false
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "event: state":
			inState = true
		case inState && strings.HasPrefix(line, "data: "):
			inState = false
			var p struct {
				State service.JobState `json:"state"`
			}
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &p); err != nil {
				return "", fmt.Errorf("state event: %w", err)
			}
			state = p.State
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	if state == "" {
		return "", errors.New("event stream ended without a state")
	}
	return state, nil
}

// mixPass is one measured pass of the service mix.
type mixPass struct {
	reqs   []*mixReq // measured requests
	use    meter     // allocations and GC CPU of the measured requests
	peakMB float64   // process max RSS when the measured region ended
	delta  service.Stats
}

// runMixPass starts a cluster, runs the warm-up blocks, then measures
// the given number of blocks. Before each block it builds the block's
// warm instance on both workers, and at the stops of setupsAfter it
// takes set-up samples; both are left out of the pass's allocations and
// counters. With a tracer, measured requests are traced end to end and
// their job traces are pulled from the router after the measured region.
func runMixPass(ctx context.Context, plan mixPlan, blocks int, tr *tracer, setup *setupTimer) (*mixPass, error) {
	cl, err := startCluster(tr != nil)
	if err != nil {
		return nil, err
	}
	defer cl.stop()
	client := newMixClient(cl.base)
	defer client.http.CloseIdleConnections()
	direct := make([]*mixClient, len(cl.peers))
	for i, peer := range cl.peers {
		direct[i] = newMixClient(peer)
		defer direct[i].http.CloseIdleConnections()
	}

	p := &mixPass{}
	var skip service.Stats
	// untimed runs f outside the pass's counters and allocations.
	untimed := func(f func() error) error {
		p.use.pause()
		before := cl.stats()
		err := f()
		skip = addStats(skip, subStats(cl.stats(), before))
		p.use.resume()
		return err
	}
	prewarm := func(b int) error {
		for _, dc := range direct {
			r := &mixReq{block: b, spec: plan.prewarm(b)}
			dc.do(ctx, nil, r)
			if r.err != nil {
				return fmt.Errorf("pre-warming %s: %w", r.spec.App, r.err)
			}
		}
		return nil
	}
	for b := 0; b < warmupRounds; b++ {
		if err := prewarm(b); err != nil {
			return nil, err
		}
		for slot := 0; slot < mixBlock; slot++ {
			spec, class := plan.spec(b, slot)
			r := &mixReq{block: b, slot: slot, spec: spec, class: class}
			client.do(ctx, nil, r)
			if r.err != nil {
				return nil, fmt.Errorf("warm-up request %s: %w", r.spec.App, r.err)
			}
		}
	}

	runtime.GC()
	before := cl.stats()
	p.use.resume()
	for b := warmupRounds; b < warmupRounds+blocks; b++ {
		if err := untimed(func() error { return prewarm(b) }); err != nil {
			return nil, err
		}
		for slot := 0; slot < mixBlock; slot++ {
			spec, class := plan.spec(b, slot)
			r := &mixReq{block: b, slot: slot, spec: spec, class: class}
			client.do(ctx, tr, r)
			p.reqs = append(p.reqs, r)
		}
		for k := setupsAfter(b-warmupRounds, blocks); k > 0 && setup != nil; k-- {
			if err := untimed(setup.sample); err != nil {
				return nil, err
			}
		}
	}
	p.use.pause()
	p.peakMB = peakRSSMB()
	p.delta = subStats(subStats(cl.stats(), before), skip)
	if tr != nil {
		for _, r := range p.reqs {
			if r.id == "" {
				continue
			}
			data, err := client.get(ctx, "/v1/jobs/"+r.id+"/trace")
			if err != nil {
				return nil, fmt.Errorf("pulling trace of %s: %w", r.id, err)
			}
			var t obs.Tree
			if err := json.Unmarshal(data, &t); err != nil {
				return nil, fmt.Errorf("decoding trace of %s: %w", r.id, err)
			}
			tr.addRemote(r.trace, t.Flatten())
		}
	}
	return p, nil
}

// subStats is a − b for the counters the benchmark reads.
func subStats(a, b service.Stats) service.Stats {
	return service.Stats{
		CacheHits: a.CacheHits - b.CacheHits, CacheMisses: a.CacheMisses - b.CacheMisses,
		PoolHits: a.PoolHits - b.PoolHits, PoolMisses: a.PoolMisses - b.PoolMisses,
		Shed: a.Shed - b.Shed,
	}
}

// addStats is a + b for the counters the benchmark reads.
func addStats(a, b service.Stats) service.Stats {
	return service.Stats{
		CacheHits: a.CacheHits + b.CacheHits, CacheMisses: a.CacheMisses + b.CacheMisses,
		PoolHits: a.PoolHits + b.PoolHits, PoolMisses: a.PoolMisses + b.PoolMisses,
		Shed: a.Shed + b.Shed,
	}
}

// mixExpect is the locally computed answer for one distinct spec.
type mixExpect struct {
	body      []byte
	energyPJ  float64 // mean over the spec's partitioners
	isi       float64 // mean over the spec's partitioners
	delivered int64   // summed over the spec's partitioners
}

// expectTables computes NewReportTable locally, on the library's default
// pipeline, for every distinct spec the requests used, one session at a
// time.
func expectTables(ctx context.Context, tr *tracer, reqs []*mixReq) (map[string]*mixExpect, error) {
	var groups [][]snnmap.JobSpec
	groupOf := map[string]int{}
	seen := map[string]bool{}
	for _, r := range reqs {
		spec, err := r.spec.Normalize()
		if err != nil {
			return nil, err
		}
		if seen[spec.Hash()] {
			continue
		}
		seen[spec.Hash()] = true
		g, ok := groupOf[spec.SessionKey()]
		if !ok {
			g = len(groups)
			groupOf[spec.SessionKey()] = g
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], spec)
	}
	out := map[string]*mixExpect{}
	for _, specs := range groups {
		got, err := expectSession(ctx, tr, specs)
		if err != nil {
			return nil, err
		}
		for h, e := range got {
			out[h] = e
		}
	}
	return out, nil
}

// expectSession builds the session the specs share and computes each
// spec's expected table on it.
func expectSession(ctx context.Context, tr *tracer, specs []snnmap.JobSpec) (map[string]*mixExpect, error) {
	first := specs[0]
	mode, err := first.AERMode()
	if err != nil {
		return nil, err
	}
	pl, err := buildSession(tr, sessionSpec{
		app:  first.App,
		cfg:  snnmap.AppConfig{Seed: first.Seed, DurationMs: first.DurationMs},
		arch: first.Arch,
		spec: snnmap.ArchSpec{Crossbars: first.Crossbars, CrossbarSize: first.CrossbarSize, AER: mode},
	})
	if err != nil {
		return nil, err
	}
	out := make(map[string]*mixExpect, len(specs))
	for _, spec := range specs {
		pts, err := spec.Partitioners()
		if err != nil {
			return nil, err
		}
		e := &mixExpect{}
		reports := make([]*snnmap.Report, 0, len(pts))
		for _, pt := range pts {
			rep, err := pl.Run(ctx, pt)
			if err != nil {
				return nil, fmt.Errorf("local run of %s: %w", spec.App, err)
			}
			if err := pl.Problem().Validate(rep.Assignment); err != nil {
				return nil, fmt.Errorf("local run of %s: %w", spec.App, err)
			}
			reports = append(reports, rep)
			e.energyPJ += rep.GlobalEnergyPJ
			e.isi += rep.Metrics.ISIAvgCycles
			e.delivered += rep.NoC.Delivered
		}
		e.energyPJ /= float64(len(reports))
		e.isi /= float64(len(reports))
		table, err := snnmap.NewReportTable(reports...)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := table.WriteJSON(&buf); err != nil {
			return nil, err
		}
		e.body = buf.Bytes()
		out[spec.Hash()] = e
	}
	return out, nil
}

// checkMix marks each request ok when it completed and its result bytes
// equal the local table of its spec. It returns the number of failures
// and one message per mismatching request.
func checkMix(reqs []*mixReq, want map[string]*mixExpect) (int, []string) {
	failed := 0
	var msgs []string
	for _, r := range reqs {
		label := fmt.Sprintf("block %d slot %d (%s %s)", r.block, r.slot, r.spec.App, strings.Join(r.spec.Techniques, ","))
		switch {
		case r.err != nil:
			failed++
			msgs = append(msgs, label+": "+r.err.Error())
		case want[r.hash] == nil:
			failed++
			msgs = append(msgs, label+": served hash "+r.hash+" matches no spec sent")
		case !bytes.Equal(r.body, want[r.hash].body):
			failed++
			msgs = append(msgs, label+": result differs from the local NewReportTable")
		}
	}
	return failed, msgs
}

// classMedians is the median request time of each latency class.
func classMedians(ms []float64, class []string) map[string]float64 {
	by := map[string][]float64{}
	for i, c := range class {
		by[c] = append(by[c], ms[i])
	}
	out := map[string]float64{}
	for c, xs := range by {
		out[c] = median(xs)
	}
	return out
}

// blockRates is the closed-loop throughput of each measured block: its
// requests per second of their summed request times.
func blockRates(reqs []*mixReq) []float64 {
	var out, ms []float64
	for i, r := range reqs {
		ms = append(ms, r.ms)
		if i == len(reqs)-1 || reqs[i+1].block != r.block {
			out = append(out, rate(ms))
			ms = ms[:0]
		}
	}
	return out
}

// requestTimes is the request times and latency classes of a pass.
func requestTimes(reqs []*mixReq) (ms []float64, class []string) {
	for _, r := range reqs {
		ms = append(ms, r.ms)
		class = append(class, r.class)
	}
	return ms, class
}

// runServiceMix runs the service mix: an untraced pass for the
// end-to-end metrics, with the cluster start-up timed during it, and,
// when tracing, a traced pass for the per-layer ones.
func runServiceMix(ctx context.Context, cfg runConfig) (*outcome, error) {
	pass := cfg.seconds
	if cfg.trace {
		pass /= 2
	}
	blocks := blocksFor(pass, mixBlockSeconds, (minSamples+mixBlock-1)/mixBlock)
	plan := newMixPlan(cfg.seed, blocks)
	setup, err := newClusterTimer()
	if err != nil {
		return nil, err
	}
	plain, err := runMixPass(ctx, plan, blocks, nil, setup)
	if err != nil {
		return nil, err
	}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	want, err := expectTables(ctx, tr, plain.reqs)
	if err != nil {
		return nil, err
	}
	out := &outcome{attempted: len(plain.reqs)}
	out.failed, out.mismatches = checkMix(plain.reqs, want)

	ms, class := requestTimes(plain.reqs)
	var energy, isi []float64
	for _, r := range plain.reqs {
		if want[r.hash] != nil {
			energy = append(energy, want[r.hash].energyPJ/1e6)
			isi = append(isi, want[r.hash].isi)
		}
	}
	t := tail(ms)
	out.tail = t
	cm := classMedians(ms, class)
	d := plain.delta
	out.notes = append(out.notes,
		fmt.Sprintf("service-mix: %d measured requests; cache hits %d / misses %d, pool hits %d / misses %d, shed %d",
			len(ms), d.CacheHits, d.CacheMisses, d.PoolHits, d.PoolMisses, d.Shed),
		fmt.Sprintf("service-mix: median request by class: hit %.3g ms, warm miss %.3g ms, cold miss %.3g ms",
			cm["hit"], cm["warm"], cm["cold"]))
	n := float64(len(ms))
	if !cfg.trace {
		out.e2e = map[string]metric{
			"setup_s":               {setup.seconds(), "s"},
			"job_p50_ms":            {median(ms), "ms"},
			"job_tail_ms":           {t.Value, "ms"},
			"jobs_per_s":            {median(blockRates(plain.reqs)), "1/s"},
			"peak_rss_mb":           {plain.peakMB, "MB"},
			"alloc_mb_per_job":      {float64(plain.use.allocB) / n / (1 << 20), "MB"},
			"ok_ratio":              {(n - float64(out.failed)) / n, "ratio"},
			"global_energy_uj":      {mean(energy), "uJ"},
			"isi_distortion_cycles": {mean(isi), "cycles"},
		}
		return out, nil
	}

	traced, err := runMixPass(ctx, plan, blocks, tr, nil)
	if err != nil {
		return nil, err
	}
	// The traced pass sends the same requests, so the same tables answer.
	failed, msgs := checkMix(traced.reqs, want)
	out.attempted += len(traced.reqs)
	out.failed += failed
	out.mismatches = append(out.mismatches, msgs...)

	out.spans = tr.spans()
	self := selfTimes(out.spans)
	reqs := float64(len(traced.reqs))
	executed := float64(countSpans(out.spans, "run"))
	builds := float64(countSpans(out.spans, "setup"))
	total := func(name string) float64 { return spanTotalMS(out.spans, name) }
	selfMS := func(name string) float64 { return float64(self[name]) / float64(time.Millisecond) }
	var delivered float64
	for _, r := range traced.reqs {
		if r.class != "hit" && want[r.hash] != nil {
			delivered += float64(want[r.hash].delivered)
		}
	}
	delivered /= executed
	replay := total("simulate") / executed
	tms, _ := requestTimes(traced.reqs)
	d = traced.delta
	out.layers = map[string]metric{
		"apps.build_ms":             {total("apps.build") / builds, "ms"},
		"pipeline.new_ms":           {total("pipeline.new") / builds, "ms"},
		"partition.solve_ms":        {total("partition") / executed, "ms"},
		"partition.place_ms":        {total("place") / executed, "ms"},
		"noc.replay_ms":             {replay, "ms"},
		"noc.deliveries":            {delivered, "count"},
		"noc.ns_per_delivery":       {replay * 1e6 / delivered, "ns"},
		"metrics.analyze_ms":        {total("analyze") / executed, "ms"},
		"runtime.gc_cpu_ms_per_job": {traced.use.gcCPU * 1000 / reqs, "ms"},
		"pipeline.other_ms":         {selfMS("technique") / executed, "ms"},
		"pipeline.job_ms":           {total("technique") / executed, "ms"},
		"trace.overhead_pct":        {(median(tms)/median(ms) - 1) * 100, "%"},
		"service.submit_ms":         {total("client.submit") / reqs, "ms"},
		"service.queue_wait_ms":     {total("queue.wait") / executed, "ms"},
		"service.session_ms":        {total("session") / executed, "ms"},
		"service.run_ms":            {total("run") / executed, "ms"},
		"service.result_ms":         {total("client.result") / reqs, "ms"},
		"service.cache_hit_ratio":   {float64(d.CacheHits) / float64(d.CacheHits+d.CacheMisses), "ratio"},
		"service.pool_hit_ratio":    {float64(d.PoolHits) / float64(d.PoolHits+d.PoolMisses), "ratio"},
		"service.shed_ratio":        {float64(d.Shed) / reqs, "ratio"},
		"fleet.proxy_ms":            {selfMS("router.proxy") / reqs, "ms"},
	}
	return out, nil
}
