package server

import (
	"sync"
	"time"

	"repro/internal/stats"
)

// metrics aggregates the daemon's operational counters. All fields are
// guarded by mu; the latency histogram reuses internal/stats so the
// endpoint reports the same nearest-rank quantiles the simulator does.
type metrics struct {
	mu        sync.Mutex
	submitted uint64
	started   uint64
	completed uint64
	failed    uint64
	cancelled uint64
	rejected  uint64
	coalesced uint64
	batches   uint64
	uploads   uint64
	cacheHits uint64
	cacheMiss uint64
	diskHits  uint64
	diskErrs  uint64
	warmed    uint64
	// Shard-layer counters: points handed to peers, remote completions
	// imported, remote-owned points degraded to local execution, and
	// cache-exchange traffic in both directions.
	shardDispatch   uint64
	shardRemote     uint64
	shardFallback   uint64
	shardRepl       uint64
	shardReplErrs   uint64
	cacheExportsCnt uint64
	cacheImportsCnt uint64
	throttled       uint64
	// Streaming layer: frames appended across every job/batch event
	// ring, frames evicted by ring overflow, and the live open-stream
	// gauge.
	eventsEmitted uint64
	eventsDropped uint64
	streamsOpen   int
	// Replicated execution: lockstep groups run to completion and the
	// seed members those runs settled.
	replicaGroups uint64
	replicaSeeds  uint64
	busy          int
	workers       int
	latency       *stats.Histogram // seconds per completed job
	upSince       time.Time
	// tenants attributes traffic to the authenticated principal that
	// caused it; keys are tenant names, created on first touch.
	tenants map[string]*tenantCounters
	// controllers attributes completed pearl runs to the registered
	// controller that drove them; keys are controller names.
	controllers map[string]*controllerCounters
	// Canary retraining loop: window samples consumed, RLS updates
	// applied, refinements attempted, promotions that improved the
	// holdout, and the promoted artifact's content hash.
	canarySamples    uint64
	canaryUpdates    uint64
	canaryRefines    uint64
	canaryPromotions uint64
	canaryLastHash   string
}

// controllerCounters is one controller family's execution ledger:
// completed runs and wavelength-state residency (measured cycles spent
// in each state, summed over runs). Learning controllers additionally
// accumulate online update counts and the hash of the last model
// version their updates promoted.
type controllerCounters struct {
	runs      uint64
	residency map[int]uint64
	updates   uint64
	promoted  string
}

func (c *controllerCounters) addRun(residency map[int]float64, measure int64) {
	c.runs++
	if len(residency) == 0 || measure <= 0 {
		return
	}
	if c.residency == nil {
		c.residency = make(map[int]uint64, len(residency))
	}
	for wl, frac := range residency {
		c.residency[wl] += uint64(frac * float64(measure))
	}
}

// controllerSnapshot renders the ledger for the metrics payload;
// callers hold m.mu.
func (c *controllerCounters) snapshot() ControllerSnapshot {
	cs := ControllerSnapshot{
		Runs:              c.runs,
		OnlineUpdates:     c.updates,
		LastPromotedModel: c.promoted,
	}
	if len(c.residency) > 0 {
		cs.StateResidencyCycles = make(map[int]uint64, len(c.residency))
		for wl, cyc := range c.residency {
			cs.StateResidencyCycles[wl] = cyc
		}
	}
	return cs
}

// snapshotControllers renders a whole ledger map; callers hold m.mu.
func snapshotControllers(set map[string]*controllerCounters) map[string]ControllerSnapshot {
	if len(set) == 0 {
		return nil
	}
	out := make(map[string]ControllerSnapshot, len(set))
	for name, cc := range set {
		out[name] = cc.snapshot()
	}
	return out
}

// tenantCounters is one tenant's share of the global counters, plus
// the tenant-only ones (throttled 429s, simulated cycles consumed).
type tenantCounters struct {
	submitted uint64
	completed uint64
	failed    uint64
	cancelled uint64
	rejected  uint64
	throttled uint64
	coalesced uint64
	cacheHits uint64
	cacheMiss uint64
	cycles    uint64
	// Streaming attribution: frames emitted by the tenant's jobs,
	// frames its rings dropped, and its live open-stream gauge.
	eventsEmitted uint64
	eventsDropped uint64
	streamsOpen   int
	// controllers is the tenant's slice of the per-controller ledger.
	controllers map[string]*controllerCounters
}

func newMetrics(workers int) *metrics {
	return &metrics{
		workers:     workers,
		latency:     stats.NewHistogram(1 << 16),
		upSince:     time.Now(),
		tenants:     make(map[string]*tenantCounters),
		controllers: make(map[string]*controllerCounters),
	}
}

// controllerEntry returns a ledger entry, creating it on first touch;
// callers hold m.mu.
func controllerEntry(set map[string]*controllerCounters, name string) *controllerCounters {
	cc, ok := set[name]
	if !ok {
		cc = &controllerCounters{}
		set[name] = cc
	}
	return cc
}

// canaryObserved accumulates the retraining feed: raw window samples
// consumed and RLS updates applied, attributed to the controller whose
// serving path the canary refines.
func (m *metrics) canaryObserved(ctrlName string, samples, updates uint64) {
	m.mu.Lock()
	m.canarySamples += samples
	m.canaryUpdates += updates
	controllerEntry(m.controllers, ctrlName).updates += updates
	m.mu.Unlock()
}

// canaryRefined records one refinement attempt; hash is the promoted
// artifact's content hash when the candidate beat the incumbent on the
// holdout (promoted), empty otherwise.
func (m *metrics) canaryRefined(ctrlName string, promoted bool, hash string) {
	m.mu.Lock()
	m.canaryRefines++
	if promoted {
		m.canaryPromotions++
		m.canaryLastHash = hash
		controllerEntry(m.controllers, ctrlName).promoted = hash
	}
	m.mu.Unlock()
}

// forTenant returns the tenant's counter block; callers hold m.mu.
func (m *metrics) forTenant(name string) *tenantCounters {
	tc, ok := m.tenants[name]
	if !ok {
		tc = &tenantCounters{}
		m.tenants[name] = tc
	}
	return tc
}

func (m *metrics) jobSubmitted(tn string) {
	m.mu.Lock()
	m.submitted++
	m.forTenant(tn).submitted++
	m.mu.Unlock()
}

// settled counts one job's terminal outcome. Server.settle is its only
// caller, holding the job's lock, so it runs once per job. A done cache
// hit or follower counts nothing here (admit books its verdict), and a
// carrier counts nothing at all: its crew carries the outcome.
func (m *metrics) settled(j *Job, o outcome) {
	if o.via == carrier || o.state == StateDone && (o.via == cached || o.via == coalesced) {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	tc := m.forTenant(j.tenant)
	switch {
	case o.state == StateCancelled:
		m.cancelled++
		tc.cancelled++
	case o.state == StateFailed && o.via == rejected:
		m.rejected++
		tc.rejected++
	case o.state == StateFailed:
		m.failed++
		tc.failed++
	case o.via == remote:
		m.shardRemote++
	default:
		// A local run, alone or in a lockstep crew: latency, the
		// simulated cycles billed to the tenant, and the controller
		// ledger (cmesh runs have no controller).
		spec := &j.exec.spec
		m.completed++
		tc.completed++
		measure := int64(spec.Config.MeasureCycles)
		tc.cycles += uint64(spec.Config.WarmupCycles) + uint64(measure)
		m.latency.Add(o.elapsed.Seconds())
		if spec.Controller == nil {
			return
		}
		name := spec.Controller.Name()
		controllerEntry(m.controllers, name).addRun(o.result.StateResidency, measure)
		if tc.controllers == nil {
			tc.controllers = make(map[string]*controllerCounters)
		}
		controllerEntry(tc.controllers, name).addRun(o.result.StateResidency, measure)
	}
}

func (m *metrics) jobCoalesced(tn string) {
	m.mu.Lock()
	m.coalesced++
	m.forTenant(tn).coalesced++
	m.mu.Unlock()
}

// tenantThrottled counts a 429 — a submission turned away at admission
// by the tenant's rate limit or in-flight quota.
func (m *metrics) tenantThrottled(tn string) {
	m.mu.Lock()
	m.throttled++
	m.forTenant(tn).throttled++
	m.mu.Unlock()
}

// eventEmitted counts one frame appended to an event ring; dropped
// marks appends that evicted an older frame to make room.
func (m *metrics) eventEmitted(tn string, dropped bool) {
	m.mu.Lock()
	m.eventsEmitted++
	tc := m.forTenant(tn)
	tc.eventsEmitted++
	if dropped {
		m.eventsDropped++
		tc.eventsDropped++
	}
	m.mu.Unlock()
}

// streamOpened/streamClosed track the live SSE stream gauge.
func (m *metrics) streamOpened(tn string) {
	m.mu.Lock()
	m.streamsOpen++
	m.forTenant(tn).streamsOpen++
	m.mu.Unlock()
}

func (m *metrics) streamClosed(tn string) {
	m.mu.Lock()
	m.streamsOpen--
	m.forTenant(tn).streamsOpen--
	m.mu.Unlock()
}

func (m *metrics) batchSubmitted() { m.mu.Lock(); m.batches++; m.mu.Unlock() }

// replicaGroupDone records one lockstep group run to successful
// completion with the given number of live seed members.
func (m *metrics) replicaGroupDone(seeds int) {
	m.mu.Lock()
	m.replicaGroups++
	m.replicaSeeds += uint64(seeds)
	m.mu.Unlock()
}
func (m *metrics) modelUploaded() { m.mu.Lock(); m.uploads++; m.mu.Unlock() }

func (m *metrics) cacheMissed(tn string) {
	m.mu.Lock()
	m.cacheMiss++
	m.forTenant(tn).cacheMiss++
	m.mu.Unlock()
}

func (m *metrics) diskCacheError() { m.mu.Lock(); m.diskErrs++; m.mu.Unlock() }

// Shard counters. shardDispatched marks a point handed to a peer;
// shardFellBack a remote-owned point degraded to local execution (a
// remote completion imported is counted by settled).
func (m *metrics) shardDispatched()      { m.mu.Lock(); m.shardDispatch++; m.mu.Unlock() }
func (m *metrics) shardFellBack()        { m.mu.Lock(); m.shardFallback++; m.mu.Unlock() }
func (m *metrics) shardReplicated()      { m.mu.Lock(); m.shardRepl++; m.mu.Unlock() }
func (m *metrics) shardReplicateFailed() { m.mu.Lock(); m.shardReplErrs++; m.mu.Unlock() }
func (m *metrics) cacheExported()        { m.mu.Lock(); m.cacheExportsCnt++; m.mu.Unlock() }
func (m *metrics) cacheImported()        { m.mu.Lock(); m.cacheImportsCnt++; m.mu.Unlock() }

// cacheHit records a result served without simulating; disk marks hits
// the memory LRU missed but the persistent store satisfied.
func (m *metrics) cacheHit(tn string, disk bool) {
	m.mu.Lock()
	m.cacheHits++
	m.forTenant(tn).cacheHits++
	if disk {
		m.diskHits++
	}
	m.mu.Unlock()
}

// cacheWarmed accumulates entries preloaded by WarmCache.
func (m *metrics) cacheWarmed(n int) {
	m.mu.Lock()
	m.warmed += uint64(n)
	m.mu.Unlock()
}

func (m *metrics) jobStarted() {
	m.mu.Lock()
	m.started++
	m.busy++
	m.mu.Unlock()
}

// workerIdle releases a busy slot regardless of job outcome.
func (m *metrics) workerIdle() {
	m.mu.Lock()
	m.busy--
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
	CacheWarmed            uint64 `json:"cache_warmed_entries"`
	// Shard layer (zero-valued when -peers is not configured).
	ShardPeers            int    `json:"shard_peers"`
	ShardRemoteDispatched uint64 `json:"shard_remote_dispatched"`
	ShardRemoteServed     uint64 `json:"shard_remote_served"`
	ShardLocalFallbacks   uint64 `json:"shard_local_fallbacks"`
	ShardReplicated       uint64 `json:"shard_replicated_entries"`
	ShardReplicateErrors  uint64 `json:"shard_replicate_errors"`
	// Cache-exchange endpoint traffic (GET/POST /v1/cache).
	CacheExports    uint64  `json:"cache_entries_exported"`
	CacheImports    uint64  `json:"cache_entries_imported"`
	JobLatencyMeanS float64 `json:"job_latency_mean_s"`
	JobLatencyP50S  float64 `json:"job_latency_p50_s"`
	JobLatencyP99S  float64 `json:"job_latency_p99_s"`
	// Streaming layer: frames appended to event rings, frames evicted
	// by ring overflow (visible to consumers as id gaps + the per-frame
	// dropped counter), and currently open SSE streams.
	EventsEmitted uint64 `json:"events_emitted"`
	EventsDropped uint64 `json:"events_dropped"`
	StreamsOpen   int    `json:"streams_open"`
	// Replicated execution: seeds:N groups run as one lockstep
	// simulation, and the per-seed members those runs settled.
	ReplicaGroupsExecuted uint64 `json:"replica_groups_executed"`
	ReplicaSeedsSimulated uint64 `json:"replica_seeds_simulated"`
	// Multi-tenant attribution: configured tenant count, lifetime 429s,
	// and the per-tenant breakdown keyed by tenant name.
	TenantsConfigured int                       `json:"tenants_configured"`
	JobsThrottled     uint64                    `json:"jobs_throttled"`
	Tenants           map[string]TenantSnapshot `json:"tenants,omitempty"`
	// Per-controller execution ledger keyed by registered controller
	// name (static, reactive, ml, proteus, d3noc, ...).
	Controllers map[string]ControllerSnapshot `json:"controllers,omitempty"`
	// Canary retraining loop (zero-valued unless -canary is configured).
	CanarySamples      uint64 `json:"canary_samples"`
	CanaryUpdates      uint64 `json:"canary_updates"`
	CanaryRefinements  uint64 `json:"canary_refinements"`
	CanaryPromotions   uint64 `json:"canary_promotions"`
	CanaryLastPromoted string `json:"canary_last_promoted,omitempty"`
}

// ControllerSnapshot is one controller family's slice of the metrics
// payload: completed runs, wavelength-state residency in measured
// cycles keyed by wavelength count, and — for learning controllers —
// online updates applied plus the last model hash those updates
// promoted.
type ControllerSnapshot struct {
	Runs                 uint64         `json:"runs"`
	StateResidencyCycles map[int]uint64 `json:"state_residency_cycles,omitempty"`
	OnlineUpdates        uint64         `json:"online_updates,omitempty"`
	LastPromotedModel    string         `json:"last_promoted_model,omitempty"`
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

// diskSnapshot carries the disk store's live footprint into snapshot.
type diskSnapshot struct {
	entries    int
	bytes      int64
	touchFails uint64
}

// tenantGauges carries the live per-tenant gauges (scheduler lane
// depths, quota in-flight counts) into snapshot alongside the counters.
type tenantGauges struct {
	configured int
	depths     map[string]int
	inflight   map[string]int
}

// snapshot captures a consistent view for the metrics endpoint.
func (m *metrics) snapshot(queueDepth, queueCap, cacheEntries, modelsHosted int, disk diskSnapshot, shardPeers int, tg tenantGauges) MetricsSnapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	q := m.latency.Percentiles(50, 99)
	s := MetricsSnapshot{
		UptimeSeconds:          time.Since(m.upSince).Seconds(),
		QueueDepth:             queueDepth,
		QueueCapacity:          queueCap,
		Workers:                m.workers,
		WorkersBusy:            m.busy,
		JobsSubmitted:          m.submitted,
		JobsStarted:            m.started,
		JobsCompleted:          m.completed,
		JobsFailed:             m.failed,
		JobsCancelled:          m.cancelled,
		JobsRejected:           m.rejected,
		JobsCoalesced:          m.coalesced,
		BatchesSubmitted:       m.batches,
		ModelsHosted:           uint64(modelsHosted),
		ModelUploads:           m.uploads,
		CacheHits:              m.cacheHits,
		CacheMisses:            m.cacheMiss,
		CacheEntries:           cacheEntries,
		CacheDiskHits:          m.diskHits,
		CacheDiskEntries:       disk.entries,
		CacheDiskBytes:         disk.bytes,
		CacheDiskErrors:        m.diskErrs,
		CacheDiskTouchFailures: disk.touchFails,
		CacheWarmed:            m.warmed,

		ShardPeers:            shardPeers,
		ShardRemoteDispatched: m.shardDispatch,
		ShardRemoteServed:     m.shardRemote,
		ShardLocalFallbacks:   m.shardFallback,
		ShardReplicated:       m.shardRepl,
		ShardReplicateErrors:  m.shardReplErrs,
		CacheExports:          m.cacheExportsCnt,
		CacheImports:          m.cacheImportsCnt,

		JobLatencyMeanS: m.latency.Mean(),
		JobLatencyP50S:  q[0],
		JobLatencyP99S:  q[1],

		EventsEmitted: m.eventsEmitted,
		EventsDropped: m.eventsDropped,
		StreamsOpen:   m.streamsOpen,

		ReplicaGroupsExecuted: m.replicaGroups,
		ReplicaSeedsSimulated: m.replicaSeeds,

		TenantsConfigured: tg.configured,
		JobsThrottled:     m.throttled,

		Controllers:        snapshotControllers(m.controllers),
		CanarySamples:      m.canarySamples,
		CanaryUpdates:      m.canaryUpdates,
		CanaryRefinements:  m.canaryRefines,
		CanaryPromotions:   m.canaryPromotions,
		CanaryLastPromoted: m.canaryLastHash,
	}
	if m.workers > 0 {
		s.WorkerUtilization = float64(m.busy) / float64(m.workers)
	}
	if lookups := m.cacheHits + m.cacheMiss; lookups > 0 {
		s.CacheHitRate = float64(m.cacheHits) / float64(lookups)
	}
	// Union of every tenant seen by the counters and the live gauges.
	names := make(map[string]bool, len(m.tenants))
	for n := range m.tenants {
		names[n] = true
	}
	for n := range tg.depths {
		names[n] = true
	}
	for n := range tg.inflight {
		names[n] = true
	}
	if len(names) > 0 {
		s.Tenants = make(map[string]TenantSnapshot, len(names))
		for n := range names {
			ts := TenantSnapshot{
				QueueDepth: tg.depths[n],
				InFlight:   tg.inflight[n],
			}
			if tc, ok := m.tenants[n]; ok {
				ts.JobsSubmitted = tc.submitted
				ts.JobsCompleted = tc.completed
				ts.JobsFailed = tc.failed
				ts.JobsCancelled = tc.cancelled
				ts.JobsRejected = tc.rejected
				ts.JobsThrottled = tc.throttled
				ts.JobsCoalesced = tc.coalesced
				ts.CacheHits = tc.cacheHits
				ts.CacheMisses = tc.cacheMiss
				ts.CyclesSimulated = tc.cycles
				ts.EventsEmitted = tc.eventsEmitted
				ts.EventsDropped = tc.eventsDropped
				ts.StreamsOpen = tc.streamsOpen
				ts.Controllers = snapshotControllers(tc.controllers)
			}
			s.Tenants[n] = ts
		}
	}
	return s
}
