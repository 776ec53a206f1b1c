package experiments

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/sim"
	"repro/internal/traffic"
)

// Lockstep execution: N replicas of one Point — identical topology and
// policy, different seeds — stepped through a shared per-cycle loop.
// This is the package's only run loop: a single run is its N=1 case,
// stepped inline on the caller's goroutine. Each replica is a complete
// independent stack from the one builder, so every replica's Result is
// bit-identical to a standalone run of its seed; with more replicas the
// engine only amortises scheduling overhead and spreads them across
// cores.
//
// Seed derivation contract: replica 0 runs the caller's base seed
// unchanged, so it is byte-identical to a single run (and its cache
// entry has the same content address). Replicas i > 0 run
// ReplicaSeed(base, point.Name(), pairName, i). Unlike the single-run
// workload seed (runSeed, which deliberately drops the config name for
// paired comparison), the replica fan folds the config name in: extra
// seeds exist to estimate variance, not to pair configurations, and
// giving each configuration its own fan keeps their error estimates
// independent. The consequence for caching is that a derived seed is a
// first-class seed — the cache key of replica i's result is exactly
// the key a standalone run with that seed would produce, so replicated
// and standalone runs converge on the same cache entries.

// ReplicaSeed derives the base seed for replica index i of a replicated
// run. Index 0 returns base unchanged (byte-identity with single runs);
// higher indices FNV-fold the configuration name, pair name and index,
// then pass the result through sim.Mix64 so consecutive indices land on
// uncorrelated seeds. The result is never 0 (some callers reserve seed
// 0 as "use the default").
func ReplicaSeed(base uint64, configName, pairName string, replica int) uint64 {
	if replica == 0 {
		return base
	}
	h := base
	for _, b := range []byte(configName) {
		h = h*1099511628211 + uint64(b)
	}
	h = h*1099511628211 + uint64('\n') // separator: ("ab","c") != ("a","bc")
	for _, b := range []byte(pairName) {
		h = h*1099511628211 + uint64(b)
	}
	h = h*1099511628211 + uint64(replica) //nolint:gosec // index is small and non-negative
	s := sim.Mix64(h)
	if s == 0 {
		s = 0x9e3779b97f4a7c15
	}
	return s
}

// ReplicaSeeds returns the n-seed fan for a replicated run:
// [base, ReplicaSeed(base, ..., 1), ...].
func ReplicaSeeds(base uint64, configName, pairName string, n int) []uint64 {
	seeds := make([]uint64, n)
	for i := range seeds {
		seeds[i] = ReplicaSeed(base, configName, pairName, i)
	}
	return seeds
}

// CanReplicate reports whether a point can run as more than one
// lockstep replica: a photonic point's controller must declare itself
// replica-safe (every Policy call mints an independent instance, so
// replica N matches a standalone run of its seed). A nil
// Point.Controller consults the configuration's registered controller;
// a model-needing configuration then fails with the construction error.
// The electrical CMESH baseline is always replicable. A single seed
// needs no gate: Run accepts any controller.
func CanReplicate(p Point) error {
	if p.Backend == BackendCMESH {
		return nil
	}
	ctrl, err := p.controller()
	if err != nil {
		return err
	}
	if !ctrl.Capabilities().ReplicaSafe {
		return fmt.Errorf("experiments: controller %s is not replica-safe; %s cannot run replicated", ctrl.Name(), p.Name())
	}
	return nil
}

// Lockstep steps N independent replicas of one Point through a shared
// cycle loop. With one lane — a single replica, or GOMAXPROCS = 1 — it
// steps them inline on the calling goroutine: no goroutines, no
// channels, which is all a single run is. With more it runs a small
// pool of persistent worker goroutines; replica i is pinned to worker
// i mod workers for the lifetime of the run, so each replica's whole
// history executes on one goroutine and workers only synchronise at
// chunk boundaries. Steady-state stepping allocates nothing either way.
//
// Because replicas never exchange state, the lane count (and hence
// GOMAXPROCS) cannot influence any replica's results — only how the
// chunks interleave in wall-clock time.
type Lockstep struct {
	replicas []replica
	// workers is the size of the goroutine pool; 0 when stepping inline.
	workers int
	cmds    []chan int64
	done    chan struct{}
	wg      sync.WaitGroup
	closed  bool
}

// NewLockstep builds a lockstep engine over one point with one replica
// per seed. seeds[i] becomes replica i's Options.Seed verbatim — callers
// wanting the standard fan use ReplicaSeeds. More than one seed needs a
// replica-safe controller (see CanReplicate). opts.OnWindow and
// opts.OnWindowSample, if set, observe replica 0 only and are invoked
// from whichever goroutine steps it (the caller's when the engine has
// one lane).
func NewLockstep(p Point, opts Options, seeds []uint64) (*Lockstep, error) {
	n := len(seeds)
	if n == 0 {
		return nil, fmt.Errorf("experiments: a run needs at least one seed")
	}
	if p.Backend != BackendCMESH {
		// One controller for the whole run; every replica mints its own
		// policy from it.
		ctrl, err := p.controller()
		if err != nil {
			return nil, err
		}
		p.Controller = ctrl
	}
	if n > 1 {
		if err := CanReplicate(p); err != nil {
			return nil, err
		}
	}
	lanes := min(runtime.GOMAXPROCS(0), n)
	// One exp(-rate) memo per lane: every replica a lane steps runs the
	// same pair, so the first replica warms the rate ladder and the rest
	// hit. Same-goroutine access only, so no locking.
	tables := make([]*traffic.ExpTable, lanes)
	for i := range tables {
		tables[i] = traffic.NewExpTable()
	}
	l := &Lockstep{replicas: make([]replica, n)}
	for i, seed := range seeds {
		o := opts
		o.Seed = seed
		if i != 0 {
			o.OnWindow = nil
			o.OnWindowSample = nil
		}
		r, err := build(p, o, true, tables[i%lanes])
		if err != nil {
			return nil, err
		}
		l.replicas[i] = r
	}
	if lanes == 1 {
		return l, nil
	}
	l.workers = lanes
	l.cmds = make([]chan int64, lanes)
	l.done = make(chan struct{}, lanes)
	for w := range l.cmds {
		l.cmds[w] = make(chan int64, 1)
		l.wg.Add(1)
		go l.worker(w)
	}
	return l, nil
}

func (l *Lockstep) worker(w int) {
	defer l.wg.Done()
	for chunk := range l.cmds[w] {
		for i := w; i < len(l.replicas); i += l.workers {
			l.replicas[i].engine.Run(chunk)
		}
		l.done <- struct{}{}
	}
}

// Replicas returns how many replicas the engine is stepping.
func (l *Lockstep) Replicas() int { return len(l.replicas) }

// Run advances every replica by the given number of cycles and returns
// once all of them have caught up. With a worker pool, the channel
// hand-off at each end of the chunk is the only synchronisation: the
// coordinator's state reads between Runs are ordered after every
// worker's writes.
func (l *Lockstep) Run(cycles int64) {
	if l.workers == 0 {
		for i := range l.replicas {
			l.replicas[i].engine.Run(cycles)
		}
		return
	}
	for w := 0; w < l.workers; w++ {
		l.cmds[w] <- cycles
	}
	for w := 0; w < l.workers; w++ {
		<-l.done
	}
}

// StartMeasurement begins the measurement phase on every replica. Call
// only between Runs (workers quiescent).
func (l *Lockstep) StartMeasurement() {
	for i := range l.replicas {
		l.replicas[i].startMeasure()
	}
}

// FinishMeasurement freezes counters and finalises every replica's
// Result, in replica order. Call only between Runs.
func (l *Lockstep) FinishMeasurement(measured int64) []Result {
	results := make([]Result, len(l.replicas))
	for i := range l.replicas {
		l.replicas[i].stopMeasure(measured)
		results[i] = l.replicas[i].finalize()
	}
	return results
}

// Close stops the worker pool, if there is one. The Lockstep must not
// be used after Close; Close is idempotent.
func (l *Lockstep) Close() {
	if l.closed {
		return
	}
	l.closed = true
	for _, c := range l.cmds {
		close(c)
	}
	l.wg.Wait()
}

// runCtxChunk is how many cycles execute between context checks: small
// enough that cancellation lands well inside a client poll interval,
// large enough to stay off the hot path.
const runCtxChunk = 1024

// runCtx drives all replicas for n cycles in bounded chunks, checking
// ctx between chunks so a cancelled or timed-out run stops within
// ~runCtxChunk cycles instead of completing the whole phase.
func (l *Lockstep) runCtx(ctx context.Context, n int64) error {
	for remaining := n; remaining > 0; {
		if err := ctx.Err(); err != nil {
			return err
		}
		step := min(int64(runCtxChunk), remaining)
		l.Run(step)
		remaining -= step
	}
	// Every replica completed all n cycles: the results are fully
	// computed, so a cancellation that lands between the final chunk and
	// this return must not discard them.
	return nil
}
