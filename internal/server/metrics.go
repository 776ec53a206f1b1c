package server

import (
	"maps"
	"sync"
	"time"

	"repro/internal/stats"
)

// metrics is the daemon's ledger. Every counter is declared once, as a
// field of the payload it is served in: the totals are a
// MetricsSnapshot, each tenant's share a TenantSnapshot and each
// controller family's a ControllerSnapshot, so adding a counter is one
// field plus one increment. The gauges other layers own (queue, caches,
// retention, tenant lanes and quotas) stay zero here; the metrics
// handler fills them in. All fields are guarded by mu; the latency
// histogram reuses internal/stats so the endpoint reports the same
// nearest-rank quantiles the simulator does.
type metrics struct {
	mu     sync.Mutex
	totals MetricsSnapshot
	// tenants attributes traffic to the authenticated principal that
	// caused it; keys are tenant names, created on first touch.
	tenants map[string]*TenantSnapshot
	latency *stats.Histogram // seconds per completed local run
	upSince time.Time
}

func newMetrics(workers int) *metrics {
	m := &metrics{
		latency: stats.NewHistogram(1 << 16),
		upSince: time.Now(),
		tenants: make(map[string]*TenantSnapshot),
	}
	m.totals.Workers = workers
	m.totals.Controllers = make(map[string]ControllerSnapshot)
	return m
}

// addRun books one completed run into a controller ledger: the run and
// its wavelength-state residency in measured cycles. It creates the
// entry, and the ledger itself, on first touch; callers hold m.mu.
func addRun(set map[string]ControllerSnapshot, name string, residency map[int]float64, measure int64) map[string]ControllerSnapshot {
	if set == nil {
		set = make(map[string]ControllerSnapshot)
	}
	c := set[name]
	c.Runs++
	if len(residency) > 0 && measure > 0 {
		if c.StateResidencyCycles == nil {
			c.StateResidencyCycles = make(map[int]uint64, len(residency))
		}
		for wl, frac := range residency {
			c.StateResidencyCycles[wl] += uint64(float64(frac * float64(measure)))
		}
	}
	set[name] = c
	return set
}

// forTenant returns the tenant's counter block; callers hold m.mu.
func (m *metrics) forTenant(name string) *TenantSnapshot {
	t, ok := m.tenants[name]
	if !ok {
		t = &TenantSnapshot{}
		m.tenants[name] = t
	}
	return t
}

// inc adds one to a counter of the totals that no tenant shares.
func (m *metrics) inc(c *uint64) {
	m.mu.Lock()
	*c++
	m.mu.Unlock()
}

func (m *metrics) jobSubmitted(tn string) {
	m.mu.Lock()
	m.totals.JobsSubmitted++
	m.forTenant(tn).JobsSubmitted++
	m.mu.Unlock()
}

// settled counts one job's terminal outcome. Server.settle is its only
// caller, holding the job's lock, so it runs once per job. A done cache
// hit or follower counts nothing here (admit books its verdict).
func (m *metrics) settled(j *Job, o outcome) {
	if o.state == StateDone && (o.via == cached || o.via == coalesced) {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	t := m.forTenant(j.tenant)
	switch {
	case o.state == StateCancelled:
		m.totals.JobsCancelled++
		t.JobsCancelled++
	case o.state == StateFailed && o.via == rejected:
		m.totals.JobsRejected++
		t.JobsRejected++
	case o.state == StateFailed:
		m.totals.JobsFailed++
		t.JobsFailed++
	default:
		// A local run: latency, the simulated cycles billed to the
		// tenant, and the controller ledger (cmesh runs have no
		// controller).
		spec := &j.exec.spec
		m.totals.JobsCompleted++
		t.JobsCompleted++
		measure := int64(spec.Config.MeasureCycles)
		t.CyclesSimulated += uint64(spec.Config.WarmupCycles) + uint64(measure)
		m.latency.Add(o.elapsed.Seconds())
		if spec.Controller == nil {
			return
		}
		name := spec.Controller.Name()
		m.totals.Controllers = addRun(m.totals.Controllers, name, o.result.StateResidency, measure)
		t.Controllers = addRun(t.Controllers, name, o.result.StateResidency, measure)
	}
}

func (m *metrics) jobCoalesced(tn string) {
	m.mu.Lock()
	m.totals.JobsCoalesced++
	m.forTenant(tn).JobsCoalesced++
	m.mu.Unlock()
}

// tenantThrottled counts a 429 — a submission turned away at admission
// by the tenant's rate limit or in-flight quota.
func (m *metrics) tenantThrottled(tn string) {
	m.mu.Lock()
	m.totals.JobsThrottled++
	m.forTenant(tn).JobsThrottled++
	m.mu.Unlock()
}

// eventEmitted counts one frame appended to an event ring; dropped
// marks appends that evicted an older frame to make room.
func (m *metrics) eventEmitted(tn string, dropped bool) {
	var d uint64
	if dropped {
		d = 1
	}
	m.eventsEmitted(tn, 1, d)
}

// eventsEmitted counts n frames at once, dropped of which evicted an
// older frame.
func (m *metrics) eventsEmitted(tn string, n, dropped uint64) {
	m.mu.Lock()
	m.totals.EventsEmitted += n
	m.totals.EventsDropped += dropped
	t := m.forTenant(tn)
	t.EventsEmitted += n
	t.EventsDropped += dropped
	m.mu.Unlock()
}

// streamOpened/streamClosed track the live SSE stream gauge.
func (m *metrics) streamOpened(tn string) {
	m.mu.Lock()
	m.totals.StreamsOpen++
	m.forTenant(tn).StreamsOpen++
	m.mu.Unlock()
}

func (m *metrics) streamClosed(tn string) {
	m.mu.Lock()
	m.totals.StreamsOpen--
	m.forTenant(tn).StreamsOpen--
	m.mu.Unlock()
}

func (m *metrics) cacheMissed(tn string) {
	m.mu.Lock()
	m.totals.CacheMisses++
	m.forTenant(tn).CacheMisses++
	m.mu.Unlock()
}

// cacheHit records a result served without simulating; disk marks hits
// the memory LRU missed but the persistent store satisfied.
func (m *metrics) cacheHit(tn string, disk bool) {
	m.mu.Lock()
	m.totals.CacheHits++
	m.forTenant(tn).CacheHits++
	if disk {
		m.totals.CacheDiskHits++
	}
	m.mu.Unlock()
}

func (m *metrics) jobStarted() {
	m.mu.Lock()
	m.totals.JobsStarted++
	m.totals.WorkersBusy++
	m.mu.Unlock()
}

// workerIdle releases a busy slot regardless of job outcome.
func (m *metrics) workerIdle() {
	m.mu.Lock()
	m.totals.WorkersBusy--
	m.mu.Unlock()
}

// MetricsSnapshot is the GET /metrics payload.
type MetricsSnapshot struct {
	UptimeSeconds     float64 `json:"uptime_seconds"`
	QueueDepth        int     `json:"queue_depth"`
	QueueCapacity     int     `json:"queue_capacity"`
	Workers           int     `json:"workers"`
	WorkersBusy       int     `json:"workers_busy"`
	WorkerUtilization float64 `json:"worker_utilization"`
	JobsSubmitted     uint64  `json:"jobs_submitted"`
	JobsStarted       uint64  `json:"jobs_started"`
	JobsCompleted     uint64  `json:"jobs_completed"`
	JobsFailed        uint64  `json:"jobs_failed"`
	JobsCancelled     uint64  `json:"jobs_cancelled"`
	JobsRejected      uint64  `json:"jobs_rejected"`
	// JobsCoalesced counts submissions that attached to identical
	// in-flight work instead of simulating (singleflight).
	JobsCoalesced    uint64 `json:"jobs_coalesced"`
	BatchesSubmitted uint64 `json:"batches_submitted"`
	// Retention: job and batch records the daemon holds, and settled ones
	// retired past the retention bound (their ids answer 410).
	JobsRetained    int    `json:"jobs_retained"`
	JobsRetired     uint64 `json:"jobs_retired"`
	BatchesRetained int    `json:"batches_retained"`
	BatchesRetired  uint64 `json:"batches_retired"`
	// Hosted-model registry: current catalogue size and lifetime uploads.
	ModelsHosted uint64  `json:"models_hosted"`
	ModelUploads uint64  `json:"model_uploads"`
	CacheHits    uint64  `json:"cache_hits"`
	CacheMisses  uint64  `json:"cache_misses"`
	CacheHitRate float64 `json:"cache_hit_rate"`
	CacheEntries int     `json:"cache_entries"`
	// Disk layer of the result cache (zero-valued when -cache-dir is
	// not configured).
	CacheDiskHits    uint64 `json:"cache_disk_hits"`
	CacheDiskEntries int    `json:"cache_disk_entries"`
	CacheDiskBytes   int64  `json:"cache_disk_bytes"`
	CacheDiskErrors  uint64 `json:"cache_disk_errors"`
	// CacheDiskTouchFailures counts Get-path recency touches
	// (os.Chtimes) that failed; a growing count means LRU eviction is
	// degrading toward FIFO for the affected entries.
	CacheDiskTouchFailures uint64 `json:"cache_disk_touch_failures"`
	// CacheExports counts entries served by GET /v1/cache/{key}.
	CacheExports    uint64  `json:"cache_entries_exported"`
	JobLatencyMeanS float64 `json:"job_latency_mean_s"`
	JobLatencyP50S  float64 `json:"job_latency_p50_s"`
	JobLatencyP99S  float64 `json:"job_latency_p99_s"`
	// Streaming layer: frames appended to event rings, frames evicted
	// by ring overflow (visible to consumers as id gaps + the per-frame
	// dropped counter), and currently open SSE streams.
	EventsEmitted uint64 `json:"events_emitted"`
	EventsDropped uint64 `json:"events_dropped"`
	StreamsOpen   int    `json:"streams_open"`
	// Multi-tenant attribution: configured tenant count, lifetime 429s,
	// and the per-tenant breakdown keyed by tenant name.
	TenantsConfigured int                       `json:"tenants_configured"`
	JobsThrottled     uint64                    `json:"jobs_throttled"`
	Tenants           map[string]TenantSnapshot `json:"tenants,omitempty"`
	// Per-controller execution ledger keyed by registered controller
	// name (static, reactive, ml, proteus, d3noc, ...).
	Controllers map[string]ControllerSnapshot `json:"controllers,omitempty"`
}

// ControllerSnapshot is one controller family's slice of the metrics
// payload: completed runs and wavelength-state residency in measured
// cycles keyed by wavelength count.
type ControllerSnapshot struct {
	Runs                 uint64         `json:"runs"`
	StateResidencyCycles map[int]uint64 `json:"state_residency_cycles,omitempty"`
}

// TenantSnapshot is one tenant's slice of the metrics payload.
type TenantSnapshot struct {
	JobsSubmitted uint64 `json:"jobs_submitted"`
	JobsCompleted uint64 `json:"jobs_completed"`
	JobsFailed    uint64 `json:"jobs_failed"`
	JobsCancelled uint64 `json:"jobs_cancelled"`
	JobsRejected  uint64 `json:"jobs_rejected"`
	// JobsThrottled counts 429s (rate limit or in-flight quota).
	JobsThrottled uint64 `json:"jobs_throttled"`
	JobsCoalesced uint64 `json:"jobs_coalesced"`
	CacheHits     uint64 `json:"cache_hits"`
	CacheMisses   uint64 `json:"cache_misses"`
	// CyclesSimulated is warmup+measure cycles of locally executed
	// completions — the tenant's simulated-work bill.
	CyclesSimulated uint64 `json:"cycles_simulated"`
	// QueueDepth and InFlight are live gauges: jobs waiting in the
	// tenant's scheduling lane, and admitted-but-not-terminal jobs
	// counted against the quota.
	QueueDepth int `json:"queue_depth"`
	InFlight   int `json:"in_flight"`
	// Streaming attribution (see the top-level fields of the same name).
	EventsEmitted uint64 `json:"events_emitted"`
	EventsDropped uint64 `json:"events_dropped"`
	StreamsOpen   int    `json:"streams_open"`
	// Per-controller execution ledger for this tenant's completed runs.
	Controllers map[string]ControllerSnapshot `json:"controllers,omitempty"`
}

// snapshot copies the ledger for the metrics endpoint: the totals by
// value, the tenant, controller and residency maps cloned so the copy
// shares nothing with the live counters, and the hit rate, utilisation
// and latency quantiles derived from them. The latency samples are
// copied under the lock and sorted after it is released, so job starts,
// finishes and cache hits never wait on a scrape's sort. The gauges
// other layers own are the caller's to fill in.
func (m *metrics) snapshot() MetricsSnapshot {
	m.mu.Lock()
	s := m.totals
	s.UptimeSeconds = time.Since(m.upSince).Seconds()
	if s.Workers > 0 {
		s.WorkerUtilization = float64(s.WorkersBusy) / float64(s.Workers)
	}
	if lookups := s.CacheHits + s.CacheMisses; lookups > 0 {
		s.CacheHitRate = float64(s.CacheHits) / float64(lookups)
	}
	s.Controllers = cloneLedger(m.totals.Controllers)
	s.Tenants = make(map[string]TenantSnapshot, len(m.tenants))
	for name, t := range m.tenants {
		ts := *t
		ts.Controllers = cloneLedger(t.Controllers)
		s.Tenants[name] = ts
	}
	latency := m.latency.Clone()
	m.mu.Unlock()
	q := latency.Percentiles(50, 99)
	s.JobLatencyMeanS, s.JobLatencyP50S, s.JobLatencyP99S = latency.Mean(), q[0], q[1]
	return s
}

// cloneLedger deep-copies a controller ledger; callers hold m.mu.
func cloneLedger(set map[string]ControllerSnapshot) map[string]ControllerSnapshot {
	if len(set) == 0 {
		return nil
	}
	out := make(map[string]ControllerSnapshot, len(set))
	for name, c := range set {
		c.StateResidencyCycles = maps.Clone(c.StateResidencyCycles)
		out[name] = c
	}
	return out
}
