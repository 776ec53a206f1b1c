package main

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/models"
	"repro/internal/server"
	"repro/internal/traffic"
)

// passResult is what one pass of a workload measured. A pass is a fixed
// amount of work, so two commits compare like with like; a timing metric
// of the run is the median over its passes.
type passResult struct {
	// mu guards the fields below while a service pass's clients run.
	mu     sync.Mutex
	setupS float64 // one set-up: model training, daemon boot, cache warm, warm-up op
	wallS  float64 // first op sent to last result fetched
	// opMS holds one client-observed latency per op, in ms.
	opMS []float64
	// cycles are the cycles the timed ops simulated (none on a cache hit).
	cycles int64
	// heapMB is HeapAlloc after a forced GC at the end of the pass, with
	// the pass's results (and daemon) still reachable; heapStartMB the
	// same at the end of set-up.
	heapMB, heapStartMB float64
	attempted           int
	failures            []string
	// digests maps spec id to the digest of the result the pass got.
	digests map[string]string
	// results are the flattened results the pass checked (model counts).
	results []server.JobResult
	// counters are the daemon's /metrics deltas over the timed part and
	// the runtime's memory statistics over it.
	counters map[string]float64
	// stages are per-op stage measurements of a service pass by name (the
	// name carries the unit), which a traced run reduces to medians.
	stages map[string][]float64
	// root is the pass's span in the tracer, -1 when untraced.
	root int
}

func (p *passResult) fail(format string, args ...any) {
	p.failures = append(p.failures, fmt.Sprintf(format, args...))
}

// check records the digest an op produced and compares it with the
// reference for that spec, when there is one.
func (p *passResult) check(e *env, s spec, res server.JobResult) {
	id, got := s.id(), digest(res)
	if prev, ok := p.digests[id]; ok && prev != got {
		p.fail("%s: digest changed within the pass", id)
	}
	p.digests[id] = got
	if want, ok := e.reference[id]; ok && want != got {
		p.fail("%s: digest %s, reference %s", id, got[:12], want[:12])
	}
	p.results = append(p.results, res)
}

// env is what every pass of a run shares.
type env struct {
	seed uint64
	// clients is the closed-loop client count of the service workloads and
	// workers the daemon's pool size: client and daemon share the cores.
	clients, workers int
	// reference holds digests.json when the seed is the one it was made
	// with, and is empty otherwise.
	reference map[string]string
}

func newEnv(seed uint64) *env {
	e := &env{seed: seed, clients: max(1, runtime.NumCPU()/2), workers: runtime.NumCPU()}
	if ref := loadReference(); ref.Seed == seed {
		e.reference = ref.Digests
	}
	return e
}

// workload is one named set of inputs. pass runs it once from scratch:
// set-up, the timed ops, verification. tr is nil for an untraced pass.
type workload interface {
	name() string
	why() string
	passes() int // at the default size, when no time budget is given
	// specs lists every simulation point a pass gets a result for.
	specs(seed uint64) []spec
	pass(ctx context.Context, e *env, tr *tracer) (*passResult, error)
}

// beginPass starts every pass as a fresh process would start: from a
// collected heap, so that one pass's garbage is not the next one's GC
// work, and with the freed memory returned to the OS, so that every pass
// pays the same page faults for the heap it grows rather than however
// many the scavenger had left it since the pass before.
func beginPass() *passResult {
	debug.FreeOSMemory()
	return &passResult{digests: map[string]string{}, counters: map[string]float64{},
		stages: map[string][]float64{}, root: -1}
}

// Set-up is timed as the median of several repetitions: the cheap ones
// take tens of milliseconds, where one reading is mostly jitter. A set-up
// is repeated while the next repetition still fits the budget.
const (
	setupReps   = 5
	setupBudget = time.Second
)

// timeSetup runs setup, repeats it as the budget allows with undo
// releasing what each repetition but the last built, and records the
// median time of one.
func (p *passResult) timeSetup(setup func() error, undo func()) error {
	var took []float64
	for begin := time.Now(); ; undo() {
		start := time.Now()
		if err := setup(); err != nil {
			return err
		}
		last := time.Since(start)
		took = append(took, last.Seconds())
		if len(took) == setupReps || time.Since(begin)+last > setupBudget {
			break
		}
	}
	p.setupS = median(took)
	return nil
}

// liveHeapMB collects garbage and returns what is left.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}

// beginTimed ends set-up: it records the live heap, so the timed part
// starts collected, and returns the runtime's cumulative allocation and
// GC counters for endPass to subtract.
func (p *passResult) beginTimed() map[string]float64 {
	p.heapStartMB = liveHeapMB()
	return memCounters()
}

func memCounters() map[string]float64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return map[string]float64{
		"runtime.gc_cycles":         float64(m.NumGC),
		"runtime.gc_pause_ms_total": float64(m.PauseTotalNs) / 1e6,
		"runtime.alloc_bytes":       float64(m.TotalAlloc),
		"runtime.allocs":            float64(m.Mallocs),
	}
}

// endPass closes the pass: the timed part's wall, the forced GC and live heap,
// and the runtime counters' growth since before (the GC is counted, so
// gc_cycles is never 0).
func (p *passResult) endPass(wall time.Duration, before map[string]float64) {
	p.wallS = wall.Seconds()
	p.heapMB = liveHeapMB()
	for name, v := range memCounters() {
		p.counters[name] = v - before[name]
	}
}

// simWorkload runs a fixed list of specs on one goroutine, one after the
// other, through the public entry points.
type simWorkload struct {
	wlName, wlWhy string
	nPasses       int
	// runs builds the pass's runs from the seed.
	runs func(seed uint64) []spec
	// train, when set, makes set-up train the model the ML presets need,
	// at this size.
	train bool
	size  size
}

// trainWindow is the reservation window of the ML preset the benchmark
// runs (ml-rw500).
const trainWindow = 500

// trainModel is pearltrain -quick, cut down further for the smoke test.
// experiments.Train hands one RandomPolicy, and so one RNG, to every
// worker of its parallel data collection, which makes the fitted model
// depend on goroutine scheduling; with a single worker it is a function
// of the seed, which reference digests need. GOMAXPROCS is back at its
// default before anything is timed.
func trainModel(z size, seed uint64) (*models.Artifact, error) {
	opts := experiments.Quick()
	opts.Seed = seed
	if z == sizeTiny {
		opts.TrainPairs, opts.ValPairs, opts.CollectCycles = opts.TrainPairs[:2], opts.ValPairs[:1], 4000
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	return experiments.Train(trainWindow, opts)
}

func (w *simWorkload) name() string { return w.wlName }
func (w *simWorkload) why() string  { return w.wlWhy }
func (w *simWorkload) passes() int  { return w.nPasses }

func (w *simWorkload) specs(seed uint64) []spec { return w.runs(seed) }

// warmSpec is the op set-up runs so the first timed op does not pay for
// cold code and a cold heap: the first spec, cut short.
func warmSpec(s spec) spec {
	s.warmup, s.measure = min(s.warmup, 2000), min(s.measure, 20000)
	return s
}

func (w *simWorkload) pass(ctx context.Context, e *env, tr *tracer) (*passResult, error) {
	p := beginPass()
	specs := w.runs(e.seed)
	var art *models.Artifact
	err := p.timeSetup(func() (err error) {
		if w.train {
			if art, err = trainModel(w.size, e.seed); err != nil {
				return err
			}
		}
		_, _, err = warmSpec(specs[0]).run(ctx, art)
		return err
	}, func() {})
	if err != nil {
		return nil, err
	}
	// kept holds what a caller of Run*Ctx holds: the raw results.
	kept := make([]experiments.Result, 0, len(specs))
	before := p.beginTimed()
	start := time.Now()
	p.root = tr.start(spanPass, -1)
	for _, s := range specs {
		opStart := time.Now()
		op := tr.start(spanOp, p.root)
		var (
			raw experiments.Result
			res server.JobResult
			err error
		)
		if tr != nil {
			raw, res, err = s.runTraced(tr, op, art)
		} else {
			raw, res, err = s.run(ctx, art)
		}
		tr.end(op)
		p.attempted++
		if err != nil {
			p.fail("%s: %v", s.id(), err)
			continue
		}
		p.opMS = append(p.opMS, ms(time.Since(opStart)))
		p.cycles += s.cycles()
		kept = append(kept, raw)
		p.check(e, s, res)
	}
	tr.end(p.root)
	p.endPass(time.Since(start), before)
	runtime.KeepAlive(kept)
	return p, nil
}

// Run lengths. fullWarmup/fullMeasure are the paper's Full option set,
// which every figure point and default pearld job runs.
const (
	fullWarmup  = 2000
	fullMeasure = 60000
)

// policyPresets are the windowed power-scaling configurations of Figs.
// 6-10: the paper's reactive and ML controllers and the two comparison
// series.
var policyPresets = []string{"dyn-rw500", "dyn-rw2000", "ml-rw500", "proteus-rw500", "d3noc-rw500"}

// size scales the suite: sizeFull is the benchmark, sizeTiny the smoke
// test.
type size int

const (
	sizeFull size = iota
	sizeTiny
)

// pick returns the value for the size.
func (z size) pick(full, tiny int64) int64 {
	if z == sizeTiny {
		return tiny
	}
	return full
}

// suite returns the six workloads at the given size.
func suite(z size) []workload {
	pairs := traffic.TestPairs()
	longMeasure := z.pick(400000, 3000)
	shortMeasure := z.pick(fullMeasure, 2000)
	warm := z.pick(fullWarmup, 200)
	nPairs := int(z.pick(4, 1))
	return []workload{
		&simWorkload{
			wlName:  "sim-pearl-long",
			wlWhy:   "long static PEARL runs without a window hook: the kernel (sim, traffic, noc, core) does all the work",
			nPasses: 4,
			runs: func(seed uint64) []spec {
				var out []spec
				for _, pair := range pairs[:nPairs] {
					out = append(out, pearlSpec("pearl-dyn", pair, seed, warm, longMeasure, false))
				}
				return out
			},
		},
		&simWorkload{
			wlName:  "sim-policy-short",
			wlWhy:   "windowed power-scaling presets at the paper's run length with OnWindow set, as every pearld job runs: policy, sampler, build and finalize no longer vanish",
			nPasses: 5,
			train:   true,
			size:    z,
			runs: func(seed uint64) []spec {
				var out []spec
				for _, preset := range policyPresets {
					for _, pair := range pairs[:nPairs] {
						out = append(out, pearlSpec(preset, pair, seed, warm, shortMeasure, true))
					}
				}
				return out
			},
		},
		&simWorkload{
			wlName:  "sim-cmesh",
			wlWhy:   "the electrical baseline of every figure: cmesh does nearly all the work and core none",
			nPasses: 5,
			runs: func(seed uint64) []spec {
				var out []spec
				for _, scale := range []int{1, 2, 4} {
					for _, pair := range pairs[:min(nPairs, 2)] {
						out = append(out, cmeshSpec(scale, pair, seed, warm, shortMeasure))
					}
				}
				return out
			},
		},
		&cachedHot{
			nPasses:    5,
			nPairs:     int(z.pick(16, 2)),
			nSeeds:     int(z.pick(4, 2)),
			warmup:     200,
			measure:    2000,
			requests:   int(z.pick(20000, 40)),
			fetchEvery: int(z.pick(100, 10)),
			crossEvery: 8,
		},
		&jobsStream{
			nPasses:    5,
			jobs:       int(z.pick(60, 2)),
			warmup:     warm,
			measure:    z.pick(20000, 2000),
			crossEvery: int(z.pick(10, 1)),
		},
		&batchFig5{
			nPasses:    4,
			warmup:     z.pick(1000, 100),
			measure:    z.pick(10000, 500),
			resubmits:  int(z.pick(20, 2)),
			crossEvery: int(z.pick(12, 48)),
		},
	}
}

func workloadByName(ws []workload, name string) (workload, bool) {
	for _, w := range ws {
		if w.name() == name {
			return w, true
		}
	}
	return nil, false
}
