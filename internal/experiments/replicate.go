package experiments

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/config"
	"repro/internal/controller"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// Replicated lockstep execution: N replicas of one (config, pair) —
// identical topology and policy, different seeds — stepped through a
// shared per-cycle loop. Each replica is a complete independent stack
// built by the same builders the single-run entry points use, so every
// replica's Result is bit-identical to a standalone run of its seed;
// the lockstep engine only amortises scheduling overhead and spreads
// the replicas across cores.
//
// Seed derivation contract: replica 0 runs the caller's base seed
// unchanged, so it is byte-identical to today's single run (and its
// cache entry has the same content address). Replicas i > 0 run
// ReplicaSeed(base, configName, pairName, i). Unlike the single-run
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

// CanReplicate reports whether a PEARL configuration can run in
// replicated lockstep mode under the given controller: the controller
// must declare itself replica-safe (every Policy call mints an
// independent instance, so replica N matches a standalone run of its
// seed). ctrl may be nil, in which case the configuration's registered
// controller is consulted; a model-needing configuration then fails
// with the construction error. The electrical CMESH baseline is always
// replicable and has no gate.
func CanReplicate(cfg config.Config, ctrl controller.Controller) error {
	if ctrl == nil {
		c, err := controller.New(cfg, nil)
		if err != nil {
			return err
		}
		ctrl = c
	}
	if !ctrl.Capabilities().ReplicaSafe {
		return fmt.Errorf("experiments: controller %s is not replica-safe; %s cannot run replicated", ctrl.Name(), cfg.Name())
	}
	return nil
}

// Lockstep steps N independent replicas through a shared cycle loop on
// a small pool of persistent worker goroutines. Replica i is pinned to
// worker i mod workers for the lifetime of the run, so each replica's
// whole history executes on one goroutine; workers only synchronise at
// chunk boundaries. Steady-state stepping allocates nothing.
//
// Because replicas never exchange state, the worker count (and hence
// GOMAXPROCS) cannot influence any replica's results — only how the
// chunks interleave in wall-clock time.
type Lockstep struct {
	replicas []replica
	workers  int
	cmds     []chan int64
	done     chan struct{}
	wg       sync.WaitGroup
	closed   bool
}

// newLockstep builds n replicas via build and starts the worker pool.
// build receives the replica index and the exp-table shared by that
// replica's worker lane.
func newLockstep(n int, build func(i int, tab *traffic.ExpTable) (replica, error)) (*Lockstep, error) {
	if n <= 0 {
		return nil, fmt.Errorf("experiments: replicated run needs at least one seed")
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	// One exp(-rate) memo per worker lane: every replica a lane steps
	// runs the same pair, so the first replica warms the rate ladder
	// and the rest hit. Same-goroutine access only, so no locking.
	tables := make([]*traffic.ExpTable, workers)
	for i := range tables {
		tables[i] = traffic.NewExpTable()
	}
	l := &Lockstep{
		replicas: make([]replica, n),
		workers:  workers,
		cmds:     make([]chan int64, workers),
		done:     make(chan struct{}, workers),
	}
	for i := 0; i < n; i++ {
		r, err := build(i, tables[i%workers])
		if err != nil {
			return nil, err
		}
		l.replicas[i] = r
	}
	for w := 0; w < workers; w++ {
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
// once all of them have caught up. The channel hand-off at each end of
// the chunk is the only synchronisation: the coordinator's state reads
// between Runs are ordered after every worker's writes.
func (l *Lockstep) Run(cycles int64) {
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

// Close stops the worker pool. The Lockstep must not be used after
// Close; Close is idempotent.
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

// runCtx drives all replicas for n cycles in bounded chunks, checking
// ctx between chunks (the lockstep analogue of runCycles).
func (l *Lockstep) runCtx(ctx context.Context, n int64) error {
	for remaining := n; remaining > 0; {
		if err := ctx.Err(); err != nil {
			return err
		}
		step := int64(runCtxChunk)
		if step > remaining {
			step = remaining
		}
		l.Run(step)
		remaining -= step
	}
	// Every replica completed all n cycles; like runCycles, a
	// cancellation racing the final chunk must not discard the finished
	// work.
	return nil
}

// runAll is the warmup → measure → finalize sequence shared by the
// replicated entry points.
func (l *Lockstep) runAll(ctx context.Context, opts Options) ([]Result, error) {
	if err := l.runCtx(ctx, opts.WarmupCycles); err != nil {
		return nil, err
	}
	l.StartMeasurement()
	if err := l.runCtx(ctx, opts.MeasureCycles); err != nil {
		return nil, err
	}
	return l.FinishMeasurement(opts.MeasureCycles), nil
}

// NewPEARLLockstep builds a lockstep engine over one photonic
// configuration with one replica per seed. seeds[i] becomes replica i's
// Options.Seed verbatim — callers wanting the standard fan use
// ReplicaSeeds. opts.OnWindow and opts.OnWindowSample, if set, observe
// replica 0 only and are invoked from a worker goroutine.
func NewPEARLLockstep(cfg config.Config, pair traffic.Pair, opts Options, seeds []uint64, ctrl controller.Controller) (*Lockstep, error) {
	if ctrl == nil {
		c, err := controller.New(cfg, nil)
		if err != nil {
			return nil, err
		}
		ctrl = c
	}
	if err := CanReplicate(cfg, ctrl); err != nil {
		return nil, err
	}
	return newLockstep(len(seeds), func(i int, tab *traffic.ExpTable) (replica, error) {
		o := opts
		o.Seed = seeds[i]
		if i != 0 {
			o.OnWindow = nil
			o.OnWindowSample = nil
		}
		return buildPEARLReplica(cfg, pair, o, ctrl, tab)
	})
}

// NewCMESHLockstep is NewPEARLLockstep for the electrical baseline.
func NewCMESHLockstep(cfg config.Config, pair traffic.Pair, opts Options, seeds []uint64, linkScale int) (*Lockstep, error) {
	return newLockstep(len(seeds), func(i int, tab *traffic.ExpTable) (replica, error) {
		o := opts
		o.Seed = seeds[i]
		if i != 0 {
			o.OnWindow = nil
		}
		return buildCMESHReplica(cfg, pair, o, linkScale, tab)
	})
}

// RunPEARLReplicatedSeeds runs one replica per seed in lockstep and
// returns their Results in seed order. results[i] is bit-identical to
// RunPEARLCtx with opts.Seed = seeds[i].
func RunPEARLReplicatedSeeds(ctx context.Context, cfg config.Config, pair traffic.Pair, opts Options, seeds []uint64, ctrl controller.Controller) ([]Result, error) {
	l, err := NewPEARLLockstep(cfg, pair, opts, seeds, ctrl)
	if err != nil {
		return nil, err
	}
	defer l.Close()
	return l.runAll(ctx, opts)
}

// RunPEARLReplicated runs n replicas with the standard derived-seed fan
// (see ReplicaSeeds); replica 0 runs opts.Seed itself.
func RunPEARLReplicated(cfg config.Config, pair traffic.Pair, opts Options, n int, ctrl controller.Controller) ([]Result, error) {
	return RunPEARLReplicatedCtx(context.Background(), cfg, pair, opts, n, ctrl)
}

// RunPEARLReplicatedCtx is RunPEARLReplicated with cooperative
// cancellation between cycle chunks.
func RunPEARLReplicatedCtx(ctx context.Context, cfg config.Config, pair traffic.Pair, opts Options, n int, ctrl controller.Controller) ([]Result, error) {
	seeds := ReplicaSeeds(opts.Seed, cfg.Name(), pair.Name(), n)
	return RunPEARLReplicatedSeeds(ctx, cfg, pair, opts, seeds, ctrl)
}

// RunCMESHReplicatedSeeds is RunPEARLReplicatedSeeds for the electrical
// baseline.
func RunCMESHReplicatedSeeds(ctx context.Context, cfg config.Config, pair traffic.Pair, opts Options, seeds []uint64, linkScale int) ([]Result, error) {
	l, err := NewCMESHLockstep(cfg, pair, opts, seeds, linkScale)
	if err != nil {
		return nil, err
	}
	defer l.Close()
	return l.runAll(ctx, opts)
}

// RunCMESHReplicated runs n electrical-baseline replicas with the
// standard derived-seed fan (the CMESH label, including the link-scale
// suffix, is the config name folded into the fan).
func RunCMESHReplicated(cfg config.Config, pair traffic.Pair, opts Options, n int, linkScale int) ([]Result, error) {
	return RunCMESHReplicatedCtx(context.Background(), cfg, pair, opts, n, linkScale)
}

// RunCMESHReplicatedCtx is RunCMESHReplicated with cooperative
// cancellation between cycle chunks.
func RunCMESHReplicatedCtx(ctx context.Context, cfg config.Config, pair traffic.Pair, opts Options, n int, linkScale int) ([]Result, error) {
	seeds := ReplicaSeeds(opts.Seed, CMESHName(linkScale), pair.Name(), n)
	return RunCMESHReplicatedSeeds(ctx, cfg, pair, opts, seeds, linkScale)
}
