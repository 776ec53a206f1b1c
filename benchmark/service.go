package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/server"
	"repro/internal/traffic"
)

// daemon is an in-process pearld behind a real HTTP listener, with the
// client that drives it. Every service pass boots a fresh one, so cache,
// registry and heap start empty.
type daemon struct {
	srv    *server.Server
	ts     *httptest.Server
	client *http.Client
}

func bootDaemon(e *env) (*daemon, error) {
	srv, err := server.New(server.Options{Workers: e.workers})
	if err != nil {
		return nil, err
	}
	ts := httptest.NewServer(srv)
	client := ts.Client()
	// One kept-alive connection per closed-loop client: the default of two
	// per host would make the others dial anew for every request.
	if tr, ok := client.Transport.(*http.Transport); ok {
		tr.MaxIdleConns, tr.MaxIdleConnsPerHost = 0, max(e.clients, http.DefaultMaxIdleConnsPerHost)
	}
	return &daemon{srv: srv, ts: ts, client: client}, nil
}

// close stops the listener and waits for the worker pool to drain.
func (d *daemon) close() {
	d.client.CloseIdleConnections()
	d.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = d.srv.Shutdown(ctx) // only fails on the timeout, and the pass's ops have all ended
}

// call sends one request and decodes the JSON response into out (when
// non-nil), returning the status code.
func (d *daemon) call(ctx context.Context, method, path string, body, out any) (int, error) {
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			return 0, err
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequestWithContext(ctx, method, d.ts.URL+path, rd)
	if err != nil {
		return 0, err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if out != nil && resp.StatusCode < 300 {
		if err := json.Unmarshal(raw, out); err != nil {
			return resp.StatusCode, fmt.Errorf("%s %s: decoding response: %w", method, path, err)
		}
	}
	return resp.StatusCode, nil
}

// follow reads an SSE feed to its "end" frame, returning the frames seen
// (end included), the end frame's body and when it arrived.
func (d *daemon) follow(ctx context.Context, path string) (frames int, end []byte, at time.Time, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.ts.URL+path, nil)
	if err != nil {
		return 0, nil, time.Time{}, err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, nil, time.Time{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, nil, time.Time{}, fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	err = server.DecodeSSE(resp.Body, func(fr server.SSEFrame) error {
		frames++
		if fr.Event == "end" {
			end, at = fr.Data, time.Now()
			return server.ErrSSEStop
		}
		return nil
	})
	if err == nil && end == nil {
		err = fmt.Errorf("GET %s: feed closed without an end frame", path)
	}
	return frames, end, at, err
}

// serverCounters reads the /metrics counters the per-layer table names.
func (d *daemon) serverCounters(ctx context.Context) (map[string]float64, error) {
	var m server.MetricsSnapshot
	if _, err := d.call(ctx, http.MethodGet, "/metrics", nil, &m); err != nil {
		return nil, err
	}
	return map[string]float64{
		"server.cache_hits":     float64(m.CacheHits),
		"server.cache_misses":   float64(m.CacheMisses),
		"server.jobs_coalesced": float64(m.JobsCoalesced),
		"server.jobs_rejected":  float64(m.JobsRejected),
		"server.events_emitted": float64(m.EventsEmitted),
		"server.events_dropped": float64(m.EventsDropped),
	}, nil
}

// counterDelta stores after-before of the daemon's counters in the pass.
func (p *passResult) counterDelta(before, after map[string]float64) {
	for name, v := range after {
		p.counters[name] = v - before[name]
	}
}

// jobTimes are one job's stage times, client-observed except the queue
// wait and run, which come from the status timestamps.
type jobTimes struct {
	submitMS, queueMS, runMS, publishMS, fetchMS, totalMS float64
	frames                                                int
}

// record adds the job's stages to the pass. The caller holds p.mu.
func (p *passResult) record(jt jobTimes) {
	for name, v := range map[string]float64{
		"server.submit_us": jt.submitMS * 1e3, "server.queue_wait_ms": jt.queueMS, "server.run_ms": jt.runMS,
		"server.publish_ms": jt.publishMS, "server.result_fetch_us": jt.fetchMS * 1e3, "server.sse_frames": float64(jt.frames),
	} {
		p.stages[name] = append(p.stages[name], v)
	}
}

func stamp(s string) time.Time {
	t, _ := time.Parse(time.RFC3339Nano, s) // a status the daemon wrote; zero time on a missing stamp
	return t
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// runJob takes one spec through the interactive path: POST, the event
// feed to its end frame, the result. parent is the op's span.
func (d *daemon) runJob(ctx context.Context, tr *tracer, parent int, s spec) (server.JobResult, jobTimes, error) {
	var (
		st  server.JobStatus
		res server.JobResult
		jt  jobTimes
	)
	t0 := time.Now()
	code, err := d.call(ctx, http.MethodPost, "/v1/jobs", s.jobRequest(), &st)
	t1 := time.Now()
	if err != nil {
		return res, jt, err
	}
	if code != http.StatusAccepted && code != http.StatusOK {
		return res, jt, fmt.Errorf("POST /v1/jobs: status %d", code)
	}
	tr.add("server.submit", parent, t0, t1)
	frames, endBody, t2, err := d.follow(ctx, "/v1/jobs/"+st.ID+"/events")
	if err != nil {
		return res, jt, err
	}
	var end server.JobEndEvent
	if err := json.Unmarshal(endBody, &end); err != nil {
		return res, jt, fmt.Errorf("end frame: %w", err)
	}
	if end.Status.State != string(server.StateDone) {
		return res, jt, fmt.Errorf("job %s ended %s: %s", st.ID, end.Status.State, end.Status.Error)
	}
	code, err = d.call(ctx, http.MethodGet, "/v1/jobs/"+st.ID+"/result", nil, &res)
	t3 := time.Now()
	if err != nil {
		return res, jt, err
	}
	if code != http.StatusOK {
		return res, jt, fmt.Errorf("GET result of %s: status %d", st.ID, code)
	}
	submitted, started, finished := stamp(end.Status.SubmittedAt), stamp(end.Status.StartedAt), stamp(end.Status.FinishedAt)
	feed := tr.add("client.sse", parent, t1, t2)
	tr.add("server.queue_wait", feed, submitted, started)
	tr.add("server.run", feed, started, finished)
	tr.add("server.publish", feed, finished, t2)
	tr.add("server.result_fetch", parent, t2, t3)
	jt = jobTimes{
		submitMS: ms(t1.Sub(t0)), queueMS: ms(started.Sub(submitted)), runMS: ms(finished.Sub(started)),
		publishMS: ms(t2.Sub(finished)), fetchMS: ms(t3.Sub(t2)), totalMS: ms(t3.Sub(t0)), frames: frames,
	}
	return res, jt, nil
}

// setUpDaemon is a service pass's set-up, timed (timeSetup): boot a
// daemon and warm it. The daemon of the last repetition is returned.
func (p *passResult) setUpDaemon(e *env, warm func(*daemon) error) (*daemon, error) {
	var d *daemon
	err := p.timeSetup(func() (err error) {
		if d, err = bootDaemon(e); err != nil {
			return err
		}
		if err = warm(d); err != nil {
			d.close()
		}
		return err
	}, func() { d.close() })
	return d, err
}

// warmUp runs one job no pass repeats, so the first timed op does not
// pay for the daemon's cold code paths.
func (d *daemon) warmUp(ctx context.Context, e *env, warmup, measure int64) error {
	warm := pearlSpec(streamPreset, traffic.TestPairs()[0], e.seed+1_000_000, warmup, measure, true)
	if _, _, err := d.runJob(ctx, nil, -1, warm); err != nil {
		return fmt.Errorf("warm-up job: %w", err)
	}
	return nil
}

// crossCheck runs a spec directly and requires the digest the service
// gave for it. It returns the direct run's host time in ms.
func (p *passResult) crossCheck(ctx context.Context, s spec) float64 {
	start := time.Now()
	_, res, err := s.run(ctx, nil)
	took := ms(time.Since(start))
	switch {
	case err != nil:
		p.fail("%s: direct run: %v", s.id(), err)
	case digest(res) != p.digests[s.id()]:
		p.fail("%s: service digest %.12s differs from direct run %.12s", s.id(), p.digests[s.id()], digest(res))
	}
	return took
}

// eachClient splits n ops over the env's closed-loop clients: client k
// takes ops k, k+clients, ... and sends its next only after the previous
// one completed. fn returns the op's latency in ms and the cycles it had
// simulated.
func (p *passResult) eachClient(e *env, n int, fn func(i int) (latMS float64, cycles int64, err error)) {
	var wg sync.WaitGroup
	for k := 0; k < e.clients; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for i := k; i < n; i += e.clients {
				lat, cycles, err := fn(i)
				p.mu.Lock()
				p.attempted++
				if err != nil {
					p.fail("op %d: %v", i, err)
				} else {
					p.opMS = append(p.opMS, lat)
					p.cycles += cycles
				}
				p.mu.Unlock()
			}
		}(k)
	}
	wg.Wait()
}

// --- svc-cached-hot ---

// cachedHot is the read path: every request is answered from the result
// cache, so the daemon's request handling does all the work.
type cachedHot struct {
	nPasses         int
	nPairs, nSeeds  int
	warmup, measure int64
	requests        int
	fetchEvery      int // every n-th request also fetches and checks the result
	crossEvery      int // every n-th key is re-run directly after the timed part
}

func (w *cachedHot) name() string { return "svc-cached-hot" }
func (w *cachedHot) why() string {
	return "repeated keys: the server's read path (decode, resolve, cache key, LRU, registry, JSON) does all the work and the kernel none; per-request retention shows in the heap"
}
func (w *cachedHot) passes() int { return w.nPasses }

// specs are the cache keys: pairs x seeds of the default configuration.
func (w *cachedHot) specs(seed uint64) []spec {
	var keys []spec
	for _, pair := range traffic.TestPairs()[:w.nPairs] {
		for i := 0; i < w.nSeeds; i++ {
			keys = append(keys, pearlSpec("pearl-dyn", pair, seed+uint64(i), w.warmup, w.measure, true))
		}
	}
	return keys
}

func (w *cachedHot) pass(ctx context.Context, e *env, tr *tracer) (*passResult, error) {
	p := beginPass()
	keys := w.specs(e.seed)
	order := rand.New(rand.NewSource(int64(e.seed))).Perm(len(keys))
	d, err := p.setUpDaemon(e, func(d *daemon) error {
		for _, s := range keys {
			res, _, err := d.runJob(ctx, nil, -1, s)
			if err != nil {
				return fmt.Errorf("warming %s: %w", s.id(), err)
			}
			p.check(e, s, res)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	defer d.close()
	p.results = p.results[:0] // model counts cover the timed part only
	beforeMem := p.beginTimed()
	beforeSrv, err := d.serverCounters(ctx)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	p.root = tr.start(spanPass, -1)
	p.eachClient(e, w.requests, func(i int) (float64, int64, error) {
		s := keys[order[i%len(keys)]]
		op := tr.start(spanOp, p.root)
		defer tr.end(op)
		var st server.JobStatus
		opStart := time.Now()
		code, err := d.call(ctx, http.MethodPost, "/v1/jobs", s.jobRequest(), &st)
		posted := time.Now()
		if err != nil {
			return 0, 0, err
		}
		if code != http.StatusOK || !st.Cached {
			return 0, 0, fmt.Errorf("%s: status %d cached=%v, want a 200 cache hit", s.id(), code, st.Cached)
		}
		tr.add("server.submit", op, opStart, posted)
		p.mu.Lock()
		p.stages["server.submit_us"] = append(p.stages["server.submit_us"], ms(posted.Sub(opStart))*1e3)
		p.mu.Unlock()
		if i%w.fetchEvery == 0 {
			var res server.JobResult
			code, err := d.call(ctx, http.MethodGet, "/v1/jobs/"+st.ID+"/result", nil, &res)
			fetched := time.Now()
			if err != nil || code != http.StatusOK {
				return 0, 0, fmt.Errorf("%s: GET result: status %d: %v", s.id(), code, err)
			}
			tr.add("server.result_fetch", op, posted, fetched)
			p.mu.Lock()
			p.stages["server.result_fetch_us"] = append(p.stages["server.result_fetch_us"], ms(fetched.Sub(posted))*1e3)
			p.check(e, s, res)
			p.mu.Unlock()
		}
		// A cached result delivers no simulated cycle.
		return ms(time.Since(opStart)), 0, nil
	})
	tr.end(p.root)
	p.endPass(time.Since(start), beforeMem)
	afterSrv, err := d.serverCounters(ctx)
	if err != nil {
		return nil, err
	}
	p.counterDelta(beforeSrv, afterSrv)
	for i := 0; i < len(keys); i += w.crossEvery {
		p.crossCheck(ctx, keys[i])
	}
	return p, nil
}

// --- svc-jobs-stream ---

// jobsStream is the write path beside that read path: every job misses
// the cache, simulates, streams its windows and is fetched.
type jobsStream struct {
	nPasses         int
	jobs            int
	warmup, measure int64
	crossEvery      int
}

func (w *jobsStream) name() string { return "svc-jobs-stream" }
func (w *jobsStream) why() string {
	return "distinct keys, followed over SSE: simulation dominates but admit, fair queue, worker hand-off, window ring, SSE flush, cache store and result marshal are all on the critical path"
}
func (w *jobsStream) passes() int { return w.nPasses }

// streamPreset is the reactive 500-cycle window configuration, so a job
// streams one frame per 500 measured cycles.
const streamPreset = "dyn-rw500"

// specs are the jobs: a seed of its own each, so every one misses.
func (w *jobsStream) specs(seed uint64) []spec {
	pairs := traffic.TestPairs()
	specs := make([]spec, w.jobs)
	for i := range specs {
		specs[i] = pearlSpec(streamPreset, pairs[i%len(pairs)], seed+1+uint64(i), w.warmup, w.measure, true)
	}
	return specs
}

func (w *jobsStream) pass(ctx context.Context, e *env, tr *tracer) (*passResult, error) {
	p := beginPass()
	specs := w.specs(e.seed)
	d, err := p.setUpDaemon(e, func(d *daemon) error { return d.warmUp(ctx, e, w.warmup, w.measure) })
	if err != nil {
		return nil, err
	}
	defer d.close()
	beforeMem := p.beginTimed()
	wantFrames := int(w.measure/500) + 1 // one per window, and the end frame
	latency := make([]float64, len(specs))
	beforeSrv, err := d.serverCounters(ctx)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	p.root = tr.start(spanPass, -1)
	p.eachClient(e, len(specs), func(i int) (float64, int64, error) {
		s := specs[i]
		op := tr.start(spanOp, p.root)
		defer tr.end(op)
		res, jt, err := d.runJob(ctx, tr, op, s)
		if err != nil {
			return 0, 0, fmt.Errorf("%s: %w", s.id(), err)
		}
		if jt.frames != wantFrames {
			return 0, 0, fmt.Errorf("%s: %d SSE frames, want %d", s.id(), jt.frames, wantFrames)
		}
		p.mu.Lock()
		defer p.mu.Unlock()
		p.check(e, s, res)
		p.record(jt)
		latency[i] = jt.totalMS
		return jt.totalMS, s.cycles(), nil
	})
	tr.end(p.root)
	p.endPass(time.Since(start), beforeMem)
	afterSrv, err := d.serverCounters(ctx)
	if err != nil {
		return nil, err
	}
	p.counterDelta(beforeSrv, afterSrv)
	// What the service adds to a job is its latency less a bare run of the
	// same spec, pair by pair: both move with the host.
	for i := 0; i < len(specs); i += w.crossEvery {
		if direct := p.crossCheck(ctx, specs[i]); latency[i] > 0 {
			p.stages["server.overhead_ms"] = append(p.stages["server.overhead_ms"], latency[i]-direct)
		}
	}
	return p, nil
}

// --- svc-batch-fig5 ---

// batchFig5 is a paper figure through the service: the Fig. 5 sweep as
// one batch, the only workload where every worker simulates at once.
type batchFig5 struct {
	nPasses         int
	warmup, measure int64
	resubmits       int
	crossEvery      int
}

func (w *batchFig5) name() string { return "svc-batch-fig5" }
func (w *batchFig5) why() string {
	return "a 144-point figure sweep as one batch (two thirds of the CPU in cmesh): all workers busy, so scheduler, cache-store lock and GC contention, straggler tail and per-point build and warm-up show"
}
func (w *batchFig5) passes() int { return w.nPasses }

// specs expands the figure exactly as the daemon does, so point i of the
// batch is spec i.
func (w *batchFig5) specs(seed uint64) []spec {
	points, err := experiments.FigureSweep("fig5", nil)
	if err != nil {
		panic(err) // the sweep name is a constant of this package
	}
	specs := make([]spec, len(points))
	for i, pt := range points {
		cfg := pt.Config
		cfg.WarmupCycles, cfg.MeasureCycles = int(w.warmup), int(w.measure)
		specs[i] = spec{backend: pt.Backend, cfg: cfg, pair: pt.Pair, seed: seed,
			warmup: w.warmup, measure: w.measure, linkScale: pt.LinkScale, windowed: true}
	}
	return specs
}

func (w *batchFig5) pass(ctx context.Context, e *env, tr *tracer) (*passResult, error) {
	p := beginPass()
	specs := w.specs(e.seed)
	d, err := p.setUpDaemon(e, func(d *daemon) error { return d.warmUp(ctx, e, w.warmup, w.measure) })
	if err != nil {
		return nil, err
	}
	defer d.close()
	beforeMem := p.beginTimed()
	req := server.BatchRequest{Sweep: "fig5", Seed: e.seed, WarmupCycles: w.warmup, MeasureCycles: w.measure}
	beforeSrv, err := d.serverCounters(ctx)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	p.root = tr.start(spanPass, -1)
	op := tr.start(spanOp, p.root)
	p.attempted = len(specs)
	var (
		st      server.BatchStatus
		results server.BatchResults
	)
	code, err := d.call(ctx, http.MethodPost, "/v1/batches", req, &st)
	t1 := time.Now()
	if err != nil || code != http.StatusAccepted {
		return nil, fmt.Errorf("POST /v1/batches: status %d: %v", code, err)
	}
	tr.add("server.batch_expand", op, start, t1)
	if _, _, _, err := d.follow(ctx, "/v1/batches/"+st.ID+"/events"); err != nil {
		return nil, err
	}
	t2 := time.Now()
	code, err = d.call(ctx, http.MethodGet, "/v1/batches/"+st.ID+"/results", nil, &results)
	if err != nil || code != http.StatusOK {
		return nil, fmt.Errorf("GET batch results: status %d: %v", code, err)
	}
	t3 := time.Now()
	tr.add("server.batch_results", op, t2, t3)
	tr.end(op)
	tr.end(p.root)
	p.stages["server.batch_expand_ms"] = []float64{ms(t1.Sub(start))}
	p.stages["server.batch_results_ms"] = []float64{ms(t3.Sub(t2))}

	if len(results.Points) != len(specs) {
		return nil, fmt.Errorf("batch has %d points, the sweep %d", len(results.Points), len(specs))
	}
	for i, pt := range results.Points {
		s := specs[i]
		switch {
		case pt.Label != s.label() || pt.Pair != s.pair.Name():
			p.fail("point %d is %s on %s, want %s", i, pt.Label, pt.Pair, s.id())
		case pt.State != string(server.StateDone) || pt.Result == nil:
			p.fail("%s: %s %s", s.id(), pt.State, pt.Error)
		default:
			p.check(e, s, *pt.Result)
			p.cycles += s.cycles()
		}
	}
	// The per-point timestamps: a point's latency runs from the batch POST
	// to its own finish, and the run spans give the pool's utilisation.
	if _, err := d.call(ctx, http.MethodGet, "/v1/batches/"+st.ID, nil, &st); err != nil {
		return nil, err
	}
	feed := tr.add("client.sse", op, t1, t2)
	var busy time.Duration
	finishes := make([]time.Time, 0, len(st.Points))
	for _, pt := range st.Points {
		started, finished := stamp(pt.StartedAt), stamp(pt.FinishedAt)
		p.opMS = append(p.opMS, ms(finished.Sub(start)))
		p.stages["server.queue_wait_ms"] = append(p.stages["server.queue_wait_ms"], ms(started.Sub(stamp(pt.SubmittedAt))))
		p.stages["server.run_ms"] = append(p.stages["server.run_ms"], ms(finished.Sub(started)))
		busy += finished.Sub(started)
		finishes = append(finishes, finished)
		tr.add("server.run", feed, started, finished)
	}
	sort.Slice(finishes, func(i, j int) bool { return finishes[i].Before(finishes[j]) })
	wall := t3.Sub(start)
	p.stages["server.worker_utilization"] = []float64{busy.Seconds() / (float64(e.workers) * wall.Seconds())}
	// A work-conserving pool's last finishes come one from each worker, so
	// the tail is how long the others idled while the last one ran.
	if n := len(finishes); e.workers > 1 && n >= e.workers {
		var idle time.Duration
		for k := 2; k <= e.workers; k++ {
			idle += finishes[n-1].Sub(finishes[n-k])
		}
		p.stages["server.batch_tail_idle_ms"] = []float64{ms(idle) / float64(e.workers-1)}
	} else {
		p.stages["server.batch_tail_idle_ms"] = []float64{0}
	}

	for i := 0; i < w.resubmits; i++ {
		var again server.BatchStatus
		rs := time.Now()
		code, err := d.call(ctx, http.MethodPost, "/v1/batches", req, &again)
		if err != nil || code != http.StatusOK {
			p.fail("cached resubmit %d: status %d: %v", i, code, err)
			continue
		}
		code, err = d.call(ctx, http.MethodGet, "/v1/batches/"+again.ID+"/results", nil, &results)
		if err != nil || code != http.StatusOK || !results.Complete {
			p.fail("cached resubmit %d: results status %d complete=%v: %v", i, code, results.Complete, err)
			continue
		}
		p.stages["server.batch_cached_ms"] = append(p.stages["server.batch_cached_ms"], ms(time.Since(rs)))
	}
	// The wall is the cold batch; the heap and the daemon's counters are
	// taken with the resubmitted batches registered too, as the daemon
	// holds them: 144 misses, then 144 hits per resubmit.
	p.endPass(wall, beforeMem)
	afterSrv, err := d.serverCounters(ctx)
	if err != nil {
		return nil, err
	}
	p.counterDelta(beforeSrv, afterSrv)
	for i := 0; i < len(specs); i += w.crossEvery {
		p.crossCheck(ctx, specs[i])
	}
	return p, nil
}
