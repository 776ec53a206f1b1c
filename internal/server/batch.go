package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/experiments"
	"repro/internal/models"
	"repro/internal/traffic"
)

// maxBatchPoints bounds one batch's expansion; a full figure sweep
// (9 configurations x 16 pairs for Figure 5) fits comfortably.
const maxBatchPoints = 256

// maxSeedsPerPoint bounds one batch point's seed fan-out.
const maxSeedsPerPoint = 32

// BatchRequest is the POST /v1/batches body: one shared configuration
// (preset + overrides, exactly as in JobRequest) fanned out over a
// list of workload pairs, or a named figure sweep (see
// experiments.SweepNames) that fixes the configurations itself and
// crosses them with the workloads (default: the paper's 16 test
// pairs). Every expanded point is scheduled as an ordinary job through
// the bounded queue, deduplicated by content hash against the cache
// and any identical in-flight work.
type BatchRequest struct {
	// Backend, Preset, Config, Seed, cycle overrides, LinkScale and
	// TimeoutMS are shared by every point, with JobRequest semantics.
	Backend       string         `json:"backend,omitempty"`
	Preset        string         `json:"preset,omitempty"`
	Config        map[string]any `json:"config,omitempty"`
	Seed          uint64         `json:"seed,omitempty"`
	WarmupCycles  int64          `json:"warmup_cycles,omitempty"`
	MeasureCycles int64          `json:"measure_cycles,omitempty"`
	LinkScale     int            `json:"link_scale,omitempty"`
	TimeoutMS     int64          `json:"timeout_ms,omitempty"`
	// Model references the hosted model serving PowerML points (name or
	// content hash), with JobRequest.Model semantics. Ignored for
	// sweeps, whose ML points span several windows and resolve their
	// per-window default names against the registry.
	Model string `json:"model,omitempty"`
	// Sweep names a figure sweep ("fig5", "fig9", ...). Mutually
	// exclusive with Backend/Preset/Config/LinkScale, which the sweep
	// determines per point. ML points the registry cannot serve are
	// skipped with a per-point reason, not a batch failure.
	Sweep string `json:"sweep,omitempty"`
	// Workloads lists the benchmark pairs. Required without a sweep;
	// with one, it restricts the sweep to these pairs.
	Workloads []WorkloadSpec `json:"workloads,omitempty"`
	// Seeds fans every point out over N derived seeds (see
	// experiments.ReplicaSeed; 0 or 1 means the single base seed). Each
	// seed is its own point: its own job, run and content-addressed
	// cache entry. The results endpoint reports mean ± stderr/CI95 per
	// series.
	Seeds int `json:"seeds,omitempty"`
	// CancelOnError cancels every unfinished point as soon as any
	// point fails.
	CancelOnError bool `json:"cancel_on_error,omitempty"`
}

// SkippedPoint records a sweep point the batch could not schedule —
// today always an ML point the model registry cannot serve. It is
// per-point status, not a batch failure: the rest of the sweep runs.
type SkippedPoint struct {
	Label  string `json:"label"`
	Pair   string `json:"pair"`
	Reason string `json:"reason"`
}

// expand resolves the request into fully validated per-point specs
// plus the points skipped with a reason, or the first client-facing
// error.
func (r BatchRequest) expand(defaultTimeout time.Duration, reg *models.Registry) ([]jobSpec, []SkippedPoint, error) {
	if r.Sweep != "" {
		return r.expandSweep(defaultTimeout, reg)
	}
	if len(r.Workloads) == 0 {
		return nil, nil, errors.New("batch needs a non-empty workloads list or a sweep name")
	}
	specs := make([]jobSpec, 0, len(r.Workloads))
	for i, w := range r.Workloads {
		req := JobRequest{
			Backend:       r.Backend,
			Preset:        r.Preset,
			Config:        r.Config,
			Workload:      w,
			Seed:          r.Seed,
			WarmupCycles:  r.WarmupCycles,
			MeasureCycles: r.MeasureCycles,
			LinkScale:     r.LinkScale,
			Model:         r.Model,
			TimeoutMS:     r.TimeoutMS,
		}
		spec, err := req.resolve(defaultTimeout, reg)
		if err != nil {
			return nil, nil, fmt.Errorf("workload %d (%s+%s): %w", i, w.CPU, w.GPU, err)
		}
		specs = append(specs, spec)
	}
	return specs, nil, nil
}

func (r BatchRequest) expandSweep(defaultTimeout time.Duration, reg *models.Registry) ([]jobSpec, []SkippedPoint, error) {
	if r.Backend != "" || r.Preset != "" || len(r.Config) > 0 || r.LinkScale != 0 {
		return nil, nil, fmt.Errorf("sweep %q fixes the configurations: backend, preset, config and link_scale must be empty", r.Sweep)
	}
	// Checked at int64 width before the int(...) narrowings below, so a
	// value that overflows int cannot wrap past finalize's limit checks.
	if err := validateCycleOverrides(r.WarmupCycles, r.MeasureCycles); err != nil {
		return nil, nil, err
	}
	var pairs []traffic.Pair
	for i, w := range r.Workloads {
		cpu, err := traffic.ProfileByName(w.CPU)
		if err != nil {
			return nil, nil, fmt.Errorf("workload %d: %w", i, err)
		}
		gpu, err := traffic.ProfileByName(w.GPU)
		if err != nil {
			return nil, nil, fmt.Errorf("workload %d: %w", i, err)
		}
		pairs = append(pairs, traffic.Pair{CPU: cpu, GPU: gpu})
	}
	points, err := experiments.FigureSweep(r.Sweep, pairs)
	if err != nil {
		return nil, nil, err
	}
	specs := make([]jobSpec, 0, len(points))
	var skipped []SkippedPoint
	for _, p := range points {
		if r.WarmupCycles > 0 {
			p.Config.WarmupCycles = int(r.WarmupCycles)
		}
		if r.MeasureCycles > 0 {
			p.Config.MeasureCycles = int(r.MeasureCycles)
		}
		spec := jobSpec{Spec: experiments.Spec{Point: p, Seed: r.Seed}}
		if r.TimeoutMS > 0 {
			spec.timeout = time.Duration(r.TimeoutMS) * time.Millisecond
		}
		spec, err := spec.finalize(defaultTimeout, reg)
		if err != nil {
			// Sweep configurations are valid by construction, so a
			// model error means the registry cannot serve the point's
			// model. Skip the point with the reason rather than failing
			// the whole sweep — the registry is operator state, not part
			// of the request.
			var me modelError
			if errors.As(err, &me) {
				skipped = append(skipped, SkippedPoint{
					Label:  p.Label,
					Pair:   p.Pair.Name(),
					Reason: err.Error(),
				})
				continue
			}
			return nil, nil, fmt.Errorf("sweep point %s on %s: %w", p.Label, p.Pair.Name(), err)
		}
		specs = append(specs, spec)
	}
	return specs, skipped, nil
}

// Batch tracks one submitted batch: its per-point jobs plus the
// cancel-on-first-error policy state.
type Batch struct {
	ID            string
	cancelOnError bool
	submitted     time.Time
	// skipped lists sweep points that never became jobs (unservable ML
	// points); immutable after submission.
	skipped []SkippedPoint
	// tenant is the submitting tenant (event attribution); events is
	// the batch's live feed, fed by every member job's window frames
	// plus per-point progress frames. It is created under mu by the
	// first armed member, or by a reader arriving while the batch is
	// still being submitted (feed), and is fixed once the batch is
	// sealed; a batch whose every member was a cache hit is born
	// terminal and never has one (see renderFeed). sealed flips once
	// the submit loop has added every member — before that the feed
	// must not close, however many early points are already terminal
	// (cache hits fire their subscribers inline during submission).
	tenant string
	events *eventRing
	sealed atomic.Bool
	// ended flips once, when the last member settles: the feed gets its
	// end frame and the batch is filed for retirement.
	ended atomic.Bool

	mu        sync.Mutex
	jobs      []*Job
	cancelled bool
}

func (b *Batch) addJob(j *Job) {
	b.mu.Lock()
	b.jobs = append(b.jobs, j)
	b.mu.Unlock()
}

// feed returns the batch's ring, creating it while the batch is still
// being submitted; nil for a batch born terminal.
func (b *Batch) feed(capacity int) *eventRing {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.events == nil && !b.sealed.Load() {
		b.events = newEventRing(capacity)
	}
	return b.events
}

// sealBornTerminal seals the batch as born terminal when the submit
// loop is over and nothing has created its ring: every member was a
// cache hit and no reader came while it was submitted. It reports
// whether it did.
func (b *Batch) sealBornTerminal() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.events != nil {
		return false
	}
	b.sealed.Store(true)
	return true
}

// size is the member count, fixed once the batch is sealed.
func (b *Batch) size() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.jobs)
}

func (b *Batch) isCancelled() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.cancelled
}

// markCancelled flips the batch to cancelled once; false when it
// already was.
func (b *Batch) markCancelled() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.cancelled {
		return false
	}
	b.cancelled = true
	return true
}

// snapshotJobs copies the job list out from under the lock.
func (b *Batch) snapshotJobs() []*Job {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]*Job(nil), b.jobs...)
}

// noteTerminal is subscribed to every point; it implements
// cancel-on-first-error by cancelling the siblings of the first
// failed point.
func (b *Batch) noteTerminal(s *Server, j *Job) {
	if !b.cancelOnError {
		return
	}
	if state, _, _ := j.outcome(); state != StateFailed {
		return
	}
	if !b.markCancelled() {
		return
	}
	b.cancelSiblings(s, j)
}

// cancelSiblings cancels every non-terminal point except skip, exactly
// as DELETE /v1/jobs/{id} would: waiting points settle at once, running
// ones are settled by their worker.
func (b *Batch) cancelSiblings(s *Server, skip *Job) {
	for _, sib := range b.snapshotJobs() {
		if sib != skip {
			s.cancel(sib)
		}
	}
}

// BatchStatus is the poll payload for a whole batch.
type BatchStatus struct {
	ID    string `json:"id"`
	State string `json:"state"`
	Total int    `json:"total"`
	// Per-state point counts.
	Pending   int `json:"pending"`
	Running   int `json:"running"`
	Done      int `json:"done"`
	Failed    int `json:"failed"`
	Cancelled int `json:"cancelled"`
	// Cached counts points served without simulating (result cache or
	// coalesced onto identical in-flight work).
	Cached int `json:"cached"`
	// Progress is the terminal fraction in [0,1].
	Progress    float64     `json:"progress"`
	SubmittedAt string      `json:"submitted_at"`
	Points      []JobStatus `json:"points,omitempty"`
	// Skipped lists sweep points dropped at submission (with reasons);
	// they are not counted in Total.
	Skipped []SkippedPoint `json:"skipped,omitempty"`
}

// status aggregates the batch's point states, with every point's
// status when includePoints is set.
func (b *Batch) status(includePoints bool) BatchStatus {
	return b.statusOf(b.snapshotJobs(), includePoints)
}

// statusOf aggregates jobs, the batch's members. Without points it only
// counts (state, cached) pairs, read under each job's lock: the batch
// feed counts on every settled point, so formatting every member's
// status there would cost N² formatted statuses per N-point batch.
func (b *Batch) statusOf(jobs []*Job, includePoints bool) BatchStatus {
	st := BatchStatus{
		ID:          b.ID,
		Total:       len(jobs),
		SubmittedAt: b.submitted.UTC().Format(time.RFC3339Nano),
		Skipped:     b.skipped,
	}
	for _, j := range jobs {
		var state JobState
		var cached bool
		if includePoints {
			js := j.Status()
			st.Points = append(st.Points, js)
			state, cached = JobState(js.State), js.Cached
		} else {
			state, cached = j.stateCached()
		}
		switch state {
		case StatePending:
			st.Pending++
		case StateRunning:
			st.Running++
		case StateDone:
			st.Done++
		case StateFailed:
			st.Failed++
		case StateCancelled:
			st.Cancelled++
		}
		if cached {
			st.Cached++
		}
	}
	terminal := st.Done + st.Failed + st.Cancelled
	if st.Total > 0 {
		st.Progress = float64(terminal) / float64(st.Total)
	}
	switch {
	case terminal == st.Total && st.Failed > 0:
		st.State = "failed"
	case terminal == st.Total && st.Cancelled > 0:
		st.State = "cancelled"
	case terminal == st.Total:
		st.State = "done"
	case st.Running > 0 || terminal > 0:
		st.State = "running"
	default:
		st.State = "pending"
	}
	return st
}

// feedRetryInterval paces the batch feeder's retries while the bounded
// queue is full.
const feedRetryInterval = 2 * time.Millisecond

// feedBatch trickles the batch's deferred leader jobs into the bounded
// queue in submission order, waiting out transient queue-full pressure
// so a batch larger than the queue still completes. It exits when
// every job is handed off or terminal, or when intake closes for
// drain (remaining points are cancelled, matching the drain semantics
// of directly queued jobs). Not tracked by the drain WaitGroup: on
// shutdown it observes the closed queue within one retry interval and
// exits on its own.
func (s *Server) feedBatch(deferred []*Job) {
	for _, job := range deferred {
		for {
			if state, _, _ := job.outcome(); state.Terminal() {
				break
			}
			queued, closed := s.queue.enqueue(job)
			if queued {
				break
			}
			if closed {
				s.settle(job, withdrawn)
				break
			}
			select {
			case <-job.exec.ctx.Done():
				// Cancelled (or settled) while waiting for a slot; the
				// next loop iteration observes the terminal state.
			case <-time.After(feedRetryInterval):
			}
		}
	}
}

// --- handlers ---

func (s *Server) handleSubmitBatch(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		httpError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	tn := s.tenantOf(r)
	if !s.admitRequest(w, tn) {
		return
	}
	var req BatchRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	specs, skipped, err := req.expand(s.opts.DefaultTimeout, s.models)
	if err != nil {
		httpError(w, http.StatusBadRequest, "invalid batch: %v", err)
		return
	}
	seeds := req.Seeds
	if seeds < 0 {
		httpError(w, http.StatusBadRequest, "seeds must be non-negative, got %d", seeds)
		return
	}
	if seeds == 0 {
		seeds = 1
	}
	if seeds > maxSeedsPerPoint {
		httpError(w, http.StatusBadRequest, "seeds %d above per-point limit %d", seeds, maxSeedsPerPoint)
		return
	}
	total := len(specs) * seeds
	if total > maxBatchPoints {
		httpError(w, http.StatusBadRequest, "batch expands to %d points (%d workloads x %d seeds, limit %d)",
			total, len(specs), seeds, maxBatchPoints)
		return
	}
	if len(specs) == 0 {
		httpError(w, http.StatusBadRequest, "batch has no runnable points (%d skipped: %s)", len(skipped), skipped[0].Reason)
		return
	}
	// Every expanded point counts against the quota, all or nothing —
	// a batch the quota cannot hold is refused whole rather than
	// truncated to an arbitrary prefix of its sweep.
	if !s.acquireSlots(w, tn, total) {
		return
	}

	b := &Batch{
		ID:            s.batches.newID(),
		cancelOnError: req.CancelOnError,
		submitted:     time.Now(),
		skipped:       skipped,
		tenant:        tn.Name(),
	}
	s.batches.add(b)
	s.metrics.inc(&s.metrics.totals.BatchesSubmitted)

	var deferred []*Job
	allCached := true
	for _, spec := range specs {
		// A seeds:N point fans out into N member jobs with derived seeds
		// (experiments.ReplicaSeed), each a first-class point: own cache
		// key — the one a standalone run of that seed has — and own
		// lifecycle.
		for i := 0; i < seeds; i++ {
			mspec := spec
			if seeds > 1 {
				mspec.Seed = experiments.ReplicaSeed(spec.Seed, spec.Name(), spec.Pair.Name(), i)
			}
			s.metrics.jobSubmitted(tn.Name())
			job := s.buildJob(&mspec, tn)
			if b.isCancelled() {
				// An earlier point already failed and cancel_on_error fired.
				s.armJob(job, mspec, tn, b)
				s.register(job, b)
				s.settle(job, outcome{state: StateCancelled, err: errors.New("batch cancelled before scheduling")})
				allCached = false
				continue
			}
			switch s.admit(job, mspec, tn, b) {
			case admitCached:
			case admitCoalesced:
				allCached = false
			case admitDeferred:
				allCached = false
				deferred = append(deferred, job)
			}
		}
	}
	if b.sealBornTerminal() {
		s.settleBornTerminal(b)
	} else {
		// Progress subscribers attach only after every member exists, so
		// frames fired here by already-terminal points (cache hits)
		// carry the full batch totals; sealing afterwards lets the last
		// terminal point — or this very call, when none is left running
		// — close the feed.
		for _, job := range b.snapshotJobs() {
			job.subscribe(func(j *Job) { b.noteProgress(s, j) })
		}
		b.sealed.Store(true)
		b.maybeCloseFeed(s, b.view())
	}
	if len(deferred) > 0 {
		go s.feedBatch(deferred)
	}
	code := http.StatusAccepted
	if allCached {
		// Every point came straight from the result cache: the batch is
		// already done, zero simulations scheduled.
		code = http.StatusOK
	}
	writeJSON(w, code, b.status(true))
}

func (s *Server) handleBatchStatus(w http.ResponseWriter, r *http.Request) {
	b, ok := s.batches.resolve(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, b.status(true))
}

func (s *Server) handleBatchCancel(w http.ResponseWriter, r *http.Request) {
	b, ok := s.batches.resolve(w, r)
	if !ok {
		return
	}
	st := b.status(false)
	if st.Done+st.Failed+st.Cancelled == st.Total {
		writeJSON(w, http.StatusConflict, b.status(true))
		return
	}
	b.markCancelled()
	b.cancelSiblings(s, nil)
	writeJSON(w, http.StatusAccepted, b.status(true))
}
