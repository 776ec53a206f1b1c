package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/models"
	"repro/internal/tenant"
)

// Options sizes the daemon.
type Options struct {
	// Workers is the simulation worker-pool size (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds queued-but-unstarted jobs (default 64); past it
	// submissions get 503.
	QueueDepth int
	// CacheCapacity bounds the content-addressed result cache entries
	// (default 1024, LRU eviction).
	CacheCapacity int
	// CacheDir, when non-empty, enables the disk-persistent result
	// cache layered under the LRU: results survive restarts and are
	// promoted back into memory on first use.
	CacheDir string
	// CacheDirMaxBytes caps the disk cache footprint (default 256 MiB);
	// the oldest entries are evicted past it.
	CacheDirMaxBytes int64
	// ModelDir, when non-empty, backs the hosted-model registry with a
	// directory of trained artifacts: every *.json in it is served at
	// boot (name = filename minus .json) and uploads persist there.
	// Empty keeps the registry in memory (uploads only).
	ModelDir string
	// DefaultTimeout bounds each job's wall-clock runtime unless the
	// request overrides it (default 5 minutes).
	DefaultTimeout time.Duration
	// TenantsFile, when non-empty, enables the multi-tenant front door:
	// a JSON file of API tokens, fair-share weights, rate limits and
	// quotas (see internal/tenant). Every /v1 request then needs a
	// configured bearer token. Empty keeps the daemon open, with all
	// work attributed to the anonymous tenant.
	TenantsFile string
	// StreamRingCapacity bounds each job/batch event ring (default 512
	// frames). Past it the oldest frames are dropped — never blocking
	// the simulation — with the cumulative drop count stamped into every
	// later frame.
	StreamRingCapacity int
	// StreamHeartbeat paces SSE comment heartbeats on idle streams
	// (default 15s).
	StreamHeartbeat time.Duration
	// MaxStreamsPerTenant caps a tenant's concurrent SSE streams when
	// its own max_streams limit is unset (default 16).
	MaxStreamsPerTenant int
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	if o.CacheCapacity <= 0 {
		o.CacheCapacity = 1024
	}
	if o.DefaultTimeout <= 0 {
		o.DefaultTimeout = 5 * time.Minute
	}
	if o.StreamRingCapacity <= 0 {
		o.StreamRingCapacity = 512
	}
	if o.StreamHeartbeat <= 0 {
		o.StreamHeartbeat = 15 * time.Second
	}
	if o.MaxStreamsPerTenant <= 0 {
		o.MaxStreamsPerTenant = 16
	}
	return o
}

// Server is the pearld daemon core: job and batch tables, bounded
// queue, worker pool, result cache and metrics, exposed as an
// http.Handler.
type Server struct {
	opts Options
	reg  *table[*Job]
	// queue is the bounded intake behind the worker pool. Dispatch
	// order is weighted fair-share across tenants (see fairQueue);
	// within a tenant it is FIFO. Its capacity is the global bound
	// shared by all tenants.
	queue   *fairQueue
	cache   *resultCache
	disk    *diskStore // nil without Options.CacheDir
	flight  *flightTable
	batches *table[*Batch]
	models  *models.Registry
	tenants *tenant.Registry
	metrics *metrics
	mux     *http.ServeMux

	// testHookAfterCacheMiss, when non-nil, runs after admit's first
	// cache lookup misses and before the flight-table lock is taken —
	// a test-only seam for deterministically exercising the
	// leader-completes-between-lookup-and-lock window.
	testHookAfterCacheMiss func(*Job)

	rootCtx    context.Context
	rootCancel context.CancelFunc
	wg         sync.WaitGroup
	draining   atomic.Bool
	drainOnce  sync.Once
}

// New builds a server and starts its worker pool. The error paths are
// an unusable Options.CacheDir or Options.ModelDir (including a corrupt
// model artifact — a daemon never boots with a silently missing model).
func New(opts Options) (*Server, error) {
	opts = opts.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		opts:       opts,
		reg:        newTable[*Job](jobIDPrefix, "job", "a done job's result stays at GET /v1/cache/{cache_key} while the cache holds it"),
		queue:      newFairQueue(opts.QueueDepth),
		cache:      newResultCache(opts.CacheCapacity),
		flight:     newFlightTable(),
		batches:    newTable[*Batch](batchIDPrefix, "batch", "its points' results stay at GET /v1/cache/{cache_key} while the cache holds them"),
		metrics:    newMetrics(opts.Workers),
		mux:        http.NewServeMux(),
		rootCtx:    ctx,
		rootCancel: cancel,
	}
	if opts.CacheDir != "" {
		disk, err := newDiskStore(opts.CacheDir, opts.CacheDirMaxBytes)
		if err != nil {
			cancel()
			return nil, err
		}
		s.disk = disk
	}
	reg, err := models.OpenRegistry(opts.ModelDir)
	if err != nil {
		cancel()
		return nil, err
	}
	s.models = reg
	tenants, err := tenant.Open(opts.TenantsFile)
	if err != nil {
		cancel()
		return nil, err
	}
	s.tenants = tenants
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("POST /v1/batches", s.handleSubmitBatch)
	s.mux.HandleFunc("GET /v1/batches/{id}", s.handleBatchStatus)
	s.mux.HandleFunc("GET /v1/batches/{id}/events", s.handleBatchEvents)
	s.mux.HandleFunc("GET /v1/batches/{id}/results", s.handleBatchResults)
	s.mux.HandleFunc("DELETE /v1/batches/{id}", s.handleBatchCancel)
	s.mux.HandleFunc("POST /v1/models", s.handleModelUpload)
	s.mux.HandleFunc("GET /v1/models", s.handleModelList)
	s.mux.HandleFunc("GET /v1/cache/{key}", s.handleCacheGet)
	s.mux.HandleFunc("POST /v1/admin/tenants/reload", s.handleTenantReload)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	for w := 0; w < opts.Workers; w++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// buildJob constructs a job's record with the next id: identity and
// tenant, no execution state. admit settles it from the cache or arms
// it to run.
func (s *Server) buildJob(spec *jobSpec, tn *tenant.Tenant) *Job {
	job := newRecord(s.reg.newID(), spec)
	job.setTenant(tn.Name(), tn.Weight())
	return job
}

// armJob attaches the execution state of a job the cache did not
// settle: its spec and context, its event ring with the terminal "end"
// frame, and the tenant's quota slot release on whatever terminal
// transition it eventually takes. A batch member also feeds the batch's
// ring, created with the batch's first armed member, joins its
// cancel-on-first-error policy, and only then joins the batch, fully
// armed.
func (s *Server) armJob(job *Job, spec jobSpec, tn *tenant.Tenant, b *Batch) {
	job.arm(spec, s.rootCtx)
	job.exec.events = newEventRing(s.opts.StreamRingCapacity)
	job.subscribe(func(*Job) { tn.ReleaseSlot() })
	s.closeFeedOnTerminal(job)
	if b != nil {
		job.exec.sinks = []*eventRing{b.feed(s.opts.StreamRingCapacity)}
		job.subscribe(func(j *Job) { b.noteTerminal(s, j) })
		b.addJob(job)
	}
}

// lookup checks the memory LRU, then the disk store; disk hits are
// promoted into the LRU. The entry's key is the LRU's copy of key. The
// second return reports a disk-layer hit. Disk corruption is tolerated
// as a miss (and counted) — the point re-simulates and the atomic Put
// overwrites the bad file.
func (s *Server) lookup(key string) (cacheEntry, bool, bool) {
	if hit, ok := s.cache.Get(key); ok {
		return hit, false, true
	}
	if s.disk == nil {
		return cacheEntry{}, false, false
	}
	result, err := s.disk.Get(key)
	if err != nil {
		s.metrics.inc(&s.metrics.totals.CacheDiskErrors)
		return cacheEntry{}, false, false
	}
	if result == nil {
		return cacheEntry{}, false, false
	}
	s.cache.Put(key, result)
	return cacheEntry{key: key, result: result}, true, true
}

// store publishes a result to both cache layers.
func (s *Server) store(key string, result *JobResult) {
	s.cache.Put(key, result)
	if s.disk != nil {
		if err := s.disk.Put(key, result); err != nil {
			s.metrics.inc(&s.metrics.totals.CacheDiskErrors)
		}
	}
}

// ServeHTTP makes the server mountable anywhere an http.Handler fits.
// The /v1 surface sits behind the tenant auth gate (a no-op until a
// tenants file is configured); /metrics and /healthz stay open for
// scrapers and probes.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if strings.HasPrefix(r.URL.Path, "/v1/") {
		tn := s.authenticate(w, r)
		if tn == nil {
			return
		}
		r = withTenant(r, tn)
	}
	s.mux.ServeHTTP(w, r)
}

// Shutdown drains the daemon: intake closes immediately (new submits
// get 503), still-queued jobs are cancelled, and in-flight simulations
// run to completion. If ctx expires first, in-flight jobs are force-
// cancelled and the context error returned once workers exit; an
// already-cancelled ctx therefore cancels them at once, then waits.
func (s *Server) Shutdown(ctx context.Context) error {
	s.drainOnce.Do(func() {
		s.draining.Store(true)
		for _, j := range s.reg.snapshot() {
			s.settle(j, withdrawn)
		}
		s.queue.close()
	})
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.rootCancel()
		<-done
		return ctx.Err()
	}
}

// --- handlers ---

// maxRequestBytes bounds a job submission body.
const maxRequestBytes = 1 << 20

// queueFullRetryAfter is the Retry-After hint on queue-full 503s: the
// queue drains as fast as the worker pool simulates, so a short
// client-side pause is the right first retry.
const queueFullRetryAfter = time.Second

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		httpError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	tn := s.tenantOf(r)
	if !s.admitRequest(w, tn) {
		return
	}
	var req JobRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	spec, err := req.resolve(s.opts.DefaultTimeout, s.models)
	if err != nil {
		httpError(w, http.StatusBadRequest, "invalid job: %v", err)
		return
	}
	if !s.acquireSlots(w, tn, 1) {
		return
	}
	s.metrics.jobSubmitted(tn.Name())
	job := s.buildJob(&spec, tn)
	switch s.admit(job, spec, tn, nil) {
	case admitCached:
		writeJSON(w, http.StatusOK, job.Status())
	case admitRejected:
		httpRetryError(w, http.StatusServiceUnavailable, queueFullRetryAfter,
			"queue full (%d jobs), retry later", s.opts.QueueDepth)
	default: // queued or coalesced onto in-flight work
		writeJSON(w, http.StatusAccepted, job.Status())
	}
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	job, ok := s.reg.resolve(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, job.Status())
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	job, ok := s.reg.resolve(w, r)
	if !ok {
		return
	}
	result, done := job.Result()
	if !done {
		writeJSON(w, http.StatusConflict, job.Status())
		return
	}
	writeJSON(w, http.StatusOK, result)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	job, ok := s.reg.resolve(w, r)
	if !ok {
		return
	}
	if !s.cancel(job) {
		writeJSON(w, http.StatusConflict, job.Status())
		return
	}
	writeJSON(w, http.StatusAccepted, job.Status())
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := s.metrics.snapshot()
	// The gauges the metrics ledger does not own.
	snap.QueueDepth, snap.QueueCapacity = s.queue.depth(), s.opts.QueueDepth
	snap.CacheEntries, snap.ModelsHosted = s.cache.Len(), uint64(s.models.Len())
	if s.disk != nil {
		snap.CacheDiskEntries, snap.CacheDiskBytes = s.disk.stats()
		snap.CacheDiskTouchFailures = s.disk.touchFailures()
	}
	snap.TenantsConfigured = s.tenants.Len()
	for name, n := range s.queue.depths() {
		t := snap.Tenants[name]
		t.QueueDepth = n
		snap.Tenants[name] = t
	}
	for name, n := range s.tenants.InFlight() {
		t := snap.Tenants[name]
		t.InFlight = n
		snap.Tenants[name] = t
	}
	snap.JobsRetained, snap.JobsRetired = s.reg.retention()
	snap.BatchesRetained, snap.BatchesRetired = s.batches.retention()
	writeJSON(w, http.StatusOK, snap)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	if s.draining.Load() {
		status = "draining"
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": status})
}

// writeJSON answers with payload as compact JSON on one line.
func writeJSON(w http.ResponseWriter, code int, payload any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(payload)
}

// apiError is the structured error body every non-2xx response
// carries; retry_after_ms accompanies 429/503 throttling responses
// alongside the Retry-After header.
type apiError struct {
	Error        string `json:"error"`
	RetryAfterMS int64  `json:"retry_after_ms,omitempty"`
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, apiError{Error: fmt.Sprintf(format, args...)})
}
