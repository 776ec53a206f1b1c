package server

import (
	"context"
	"errors"
	"sync"
	"time"

	"repro/internal/tenant"
)

// JobState is a job's lifecycle stage.
type JobState string

// Job lifecycle: pending -> running -> done | failed | cancelled.
// Cache hits and cancelled-while-queued jobs skip running.
const (
	StatePending   JobState = "pending"
	StateRunning   JobState = "running"
	StateDone      JobState = "done"
	StateFailed    JobState = "failed"
	StateCancelled JobState = "cancelled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Job is one submitted point with its lifecycle bookkeeping. The
// mutable fields are guarded by mu.
//
// Every job carries its identity, computed once when it is built. Only
// a job that may run also carries execution state, attached by arm once
// the result cache has missed. A cache hit is terminal at birth and
// never gets any: it stays a compact record whose feed is synthesized
// from Status on request (see handleJobEvents).
type Job struct {
	ID  string
	key string

	// Identity, fixed at build: what Status, the batch series rows, the
	// window frames and the batch results report for the job.
	backend string
	config  string
	pair    string
	model   string
	label   string

	// Tenant identity, fixed at submission: the owning tenant's name
	// (scheduling lane and metrics attribution), the bearer token it
	// presented (forwarded on shard dispatch), and its fair-share
	// weight captured at admission time.
	tenant string
	token  string
	weight int

	// exec is nil on a job settled from the cache at submission.
	exec *execution

	mu        sync.Mutex
	state     JobState
	err       error
	result    *JobResult
	cached    bool
	coalesced bool
	remote    bool
	follower  bool
	subs      []func(*Job)
	submitted time.Time
	started   time.Time
	finished  time.Time
}

// execution is the state of a job that may run. It is fixed before the
// job is shared with any other goroutine, so it needs no lock.
type execution struct {
	// spec is the simulation; ctx/cancel govern its cooperative
	// cancellation.
	spec   jobSpec
	ctx    context.Context
	cancel context.CancelFunc

	// events is the job's live feed; sinks are additional rings (the
	// owning batch's feed) its window frames fan out to. The rings
	// themselves are concurrency-safe.
	events *eventRing
	sinks  []*eventRing
}

// newRecord builds the part of a job every job has: id, content key and
// identity. It is all a cache hit ever carries.
func newRecord(id string, spec *jobSpec) *Job {
	config := spec.Config.Name()
	label := config // a photonic point's label is its config name: keep one copy
	if spec.Backend != BackendPEARL {
		label = spec.Name()
	}
	return &Job{
		ID:        id,
		key:       spec.Key(),
		backend:   spec.Backend,
		config:    config,
		pair:      spec.Pair.Name(),
		model:     spec.Config.ModelRef,
		label:     label,
		tenant:    tenant.AnonymousName,
		weight:    1,
		state:     StatePending,
		submitted: time.Now(),
	}
}

// arm attaches the execution state of a job that may run. Called before
// the job is shared with any other goroutine.
func (j *Job) arm(spec jobSpec, parent context.Context) {
	ctx, cancel := context.WithCancel(parent)
	j.exec = &execution{spec: spec, ctx: ctx, cancel: cancel}
}

// release frees the job's context; a job settled at submission has
// none.
func (j *Job) release() {
	if j.exec != nil {
		j.exec.cancel()
	}
}

// setTenant stamps the owning tenant onto a freshly built job. Called
// before the job is shared with any other goroutine, so the fields
// need no lock afterwards.
func (j *Job) setTenant(name, token string, weight int) {
	j.tenant = name
	j.token = token
	j.weight = weight
}

// subscribe registers fn to run exactly once when the job reaches a
// terminal state (on whatever goroutine drives the transition, with no
// job lock held). Subscribing to an already-terminal job invokes fn
// immediately. This is the primitive both the singleflight layer
// (followers awaiting a leader) and batch cancel-on-first-error build
// on.
func (j *Job) subscribe(fn func(*Job)) {
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		fn(j)
		return
	}
	j.subs = append(j.subs, fn)
	j.mu.Unlock()
}

// takeSubsLocked detaches the pending subscribers; callers hold mu and
// invoke them after unlocking.
func (j *Job) takeSubsLocked() []func(*Job) {
	subs := j.subs
	j.subs = nil
	return subs
}

func notify(j *Job, subs []func(*Job)) {
	for _, fn := range subs {
		fn(j)
	}
}

// markFollower tags the job as a singleflight follower: it is never
// enqueued and resolves when its leader does, so the drain path leaves
// it alone (a pendingOnly outcome skips followers).
func (j *Job) markFollower() {
	j.mu.Lock()
	j.follower = true
	j.coalesced = true
	j.mu.Unlock()
}

// outcome snapshots the terminal state, payload and error.
func (j *Job) outcome() (JobState, *JobResult, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state, j.result, j.err
}

// markRunning transitions pending -> running; returns false when the
// job was cancelled while queued (the worker must skip it).
func (j *Job) markRunning() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StatePending {
		return false
	}
	j.state = StateRunning
	j.started = time.Now()
	return true
}

// provenance says how a job reached its terminal state; settle stamps
// and counts by it (DESIGN.md "Job lifecycle" has the table).
type provenance uint8

const (
	// executed: the job's own lifecycle — run by a worker, or
	// cancelled or failed before it ran.
	executed provenance = iota
	// cached: served from the result cache at admission.
	cached
	// coalesced: a singleflight follower taking its leader's outcome.
	coalesced
	// remote: run by a shard peer and imported.
	remote
	// rejected: refused at admission because the queue was full.
	rejected
)

// guard narrows which live jobs an outcome may settle.
type guard uint8

const (
	// anyLive settles any job not yet terminal.
	anyLive guard = iota
	// notRunning leaves a running job to its worker.
	notRunning
	// pendingOnly also leaves followers to their leader.
	pendingOnly
)

// outcome is one terminal transition, handed to settle by value.
type outcome struct {
	state  JobState
	result *JobResult
	err    error
	via    provenance
	// elapsed is the run time of an executed run.
	elapsed time.Duration
	guard   guard
}

// withdrawn cancels a job only while it still waits its turn: drain
// and the closed batch feeder withdraw work that never started.
var withdrawn = outcome{state: StateCancelled, guard: pendingOnly}

// errCancelledRunning is the error of a run stopped by its context.
var errCancelledRunning = errors.New("cancelled while running")

// settle is a job's one terminal transition: every path to a terminal
// state goes through it. It reports whether this call settled the job,
// which is false when the job was already terminal or o's guard leaves
// it alone. The outcome is counted under the job's lock, before any
// subscriber runs, so whoever observes the terminal state also observes
// its counter. metrics.mu is a leaf lock: job.mu → metrics.mu, never the
// reverse.
func (s *Server) settle(j *Job, o outcome) bool {
	j.mu.Lock()
	if j.state.Terminal() ||
		o.guard != anyLive && j.state == StateRunning ||
		o.guard == pendingOnly && j.follower {
		j.mu.Unlock()
		return false
	}
	j.state, j.result, j.err = o.state, o.result, o.err
	j.finished = time.Now()
	if o.state == StateDone && (o.via == cached || o.via == coalesced || o.via == remote) {
		// Served without running here: it started when it was submitted.
		j.cached = true
		j.remote = o.via == remote
		j.started = j.submitted
	}
	s.metrics.settled(j, o)
	subs := j.takeSubsLocked()
	j.mu.Unlock()
	j.release()
	notify(j, subs)
	return true
}

// cancel is DELETE's transition, for a job or a batch's points: a job
// still waiting settles cancelled at once, while a running one only has
// its context signalled and is settled by its worker. False when the
// job was already terminal.
func (s *Server) cancel(j *Job) bool {
	if s.settle(j, outcome{state: StateCancelled, guard: notRunning}) {
		return true
	}
	if state, _, _ := j.outcome(); state != StateRunning {
		return false
	}
	j.release()
	return true
}

// stateCached reads what a batch's counts need of the job: its state
// and whether it was served without running here.
func (j *Job) stateCached() (JobState, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state, j.cached
}

// Result returns the payload and whether the job is done.
func (j *Job) Result() (*JobResult, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result, j.state == StateDone
}

// Status snapshots the job for the API.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:          j.ID,
		State:       string(j.state),
		Tenant:      j.tenant,
		Backend:     j.backend,
		Config:      j.config,
		Pair:        j.pair,
		Model:       j.model,
		CacheKey:    j.key,
		Cached:      j.cached,
		Coalesced:   j.coalesced,
		Remote:      j.remote,
		SubmittedAt: j.submitted.UTC().Format(time.RFC3339Nano),
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	if !j.started.IsZero() {
		st.StartedAt = j.started.UTC().Format(time.RFC3339Nano)
	}
	if !j.finished.IsZero() {
		st.FinishedAt = j.finished.UTC().Format(time.RFC3339Nano)
		st.ElapsedMS = j.finished.Sub(j.submitted).Milliseconds()
	}
	return st
}
