// Package server is pearld's simulation-as-a-service layer: a JSON API
// over a bounded job queue and worker pool that evaluates PEARL / CMESH
// configurations on benchmark pairs, with a content-addressed result
// cache and a live metrics endpoint. Everything is stdlib net/http.
//
// Endpoints:
//
//	POST   /v1/jobs             submit a job (JobRequest) -> JobStatus
//	GET    /v1/jobs/{id}        poll a job -> JobStatus
//	GET    /v1/jobs/{id}/result fetch a finished job's JobResult
//	DELETE /v1/jobs/{id}        cancel a queued or running job
//	POST   /v1/batches          submit a (config, pair) sweep (BatchRequest) -> BatchStatus
//	GET    /v1/batches/{id}     poll a batch: per-point status + aggregate progress
//	DELETE /v1/batches/{id}     cancel every unfinished point of a batch
//	GET    /v1/cache/{key}      export one cached result as a CacheEntry
//	GET    /metrics             MetricsSnapshot (queue, counters, latency)
//	GET    /healthz             liveness probe
//
// Results are content-addressed: identical (backend, config, workload,
// seed, run-length) points hash to the same key and are served from a
// two-level cache (in-memory LRU over an optional disk store that
// survives restarts), and concurrent duplicates coalesce onto a single
// simulation.
package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"repro/internal/config"
	"repro/internal/controller"
	"repro/internal/experiments"
	"repro/internal/models"
	"repro/internal/traffic"
)

// Backend names accepted by JobRequest.Backend.
const (
	BackendPEARL = experiments.BackendPEARL
	BackendCMESH = experiments.BackendCMESH
)

// WorkloadSpec names the benchmark pair driving the run.
type WorkloadSpec struct {
	// CPU and GPU are benchmark names from the paper's Table IV suites
	// (e.g. "fmm", "DCT"); see traffic.ProfileByName.
	CPU string `json:"cpu"`
	GPU string `json:"gpu"`
}

// JobRequest is the POST /v1/jobs body. Omitted fields default:
// backend "pearl", config from the preset (or config.Default()),
// seed 2018, cycles from the resolved config, link_scale 1.
type JobRequest struct {
	// Backend selects the photonic network ("pearl") or the electrical
	// baseline ("cmesh"), which reads only the buffer slots and run
	// lengths of the configuration: its other fields, preset and policy
	// leave a cmesh job's cache key and result unchanged.
	Backend string `json:"backend,omitempty"`
	// Preset optionally starts the configuration from a named paper
	// configuration (config.ByName); Config fields then override it.
	Preset string `json:"preset,omitempty"`
	// Config holds config.Config field overrides (Go field names, e.g.
	// {"StaticWavelengths": 32, "Power": 1}).
	Config map[string]any `json:"config,omitempty"`
	// Workload is the benchmark pair to simulate.
	Workload WorkloadSpec `json:"workload"`
	// Seed drives all randomness; identical requests produce identical
	// results (and therefore cache hits). 0 means the paper seed 2018.
	Seed uint64 `json:"seed,omitempty"`
	// WarmupCycles / MeasureCycles override the resolved config's run
	// lengths when positive.
	WarmupCycles  int64 `json:"warmup_cycles,omitempty"`
	MeasureCycles int64 `json:"measure_cycles,omitempty"`
	// LinkScale narrows CMESH links (bandwidth-matched baselines);
	// ignored for the pearl backend, whose cache key always carries 1.
	LinkScale int `json:"link_scale,omitempty"`
	// Model references the hosted trained model serving a PowerML
	// configuration: a registry name or an artifact content hash.
	// Empty defaults to "rw<reservation window>". Shorthand for
	// Config["ModelRef"].
	Model string `json:"model,omitempty"`
	// Policy optionally names a registered wavelength-state controller
	// ("static", "reactive", "ml", "online", "rl", "proteus", "d3noc");
	// it sets the resolved configuration's power policy after preset and
	// Config overrides. Unknown names are rejected with the registered
	// list.
	Policy string `json:"policy,omitempty"`
	// TimeoutMS bounds the job's wall-clock runtime; 0 uses the server
	// default.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// jobSpec is a fully resolved, validated request — the unit of work the
// queue carries. Its identity, and so its cache key, is the embedded
// experiments.Spec (normalized and bound by finalize); its timeout is
// execution state.
type jobSpec struct {
	experiments.Spec
	timeout time.Duration
}

// options bounds for externally supplied run lengths.
const (
	maxMeasureCycles = 5_000_000
	maxWarmupCycles  = 1_000_000
)

// validateCycleOverrides rejects externally supplied run lengths the
// server could never accept, checked at int64 width BEFORE any
// narrowing to int — a value that would overflow int must not wrap
// into something that slips past the limit checks.
func validateCycleOverrides(warmup, measure int64) error {
	if warmup > maxWarmupCycles {
		return fmt.Errorf("warmup_cycles %d above server limit %d", warmup, maxWarmupCycles)
	}
	if measure > maxMeasureCycles {
		return fmt.Errorf("measure_cycles %d above server limit %d", measure, maxMeasureCycles)
	}
	return nil
}

// resolve validates the request and fills defaults, returning the
// executable spec or a client-facing error. PowerML specs are resolved
// against the model registry.
func (r JobRequest) resolve(defaultTimeout time.Duration, reg *models.Registry) (jobSpec, error) {
	var spec jobSpec
	spec.Backend, spec.LinkScale, spec.Seed = r.Backend, r.LinkScale, r.Seed
	if err := validateCycleOverrides(r.WarmupCycles, r.MeasureCycles); err != nil {
		return jobSpec{}, err
	}

	cfg := config.Default()
	if r.Preset != "" {
		var err error
		if cfg, err = config.ByName(r.Preset); err != nil {
			return jobSpec{}, err
		}
	}
	if len(r.Config) > 0 {
		var err error
		if cfg, err = applyOverrides(cfg, r.Config); err != nil {
			return jobSpec{}, err
		}
	}
	if r.Policy != "" {
		cspec, ok := controller.Lookup(r.Policy)
		if !ok {
			return jobSpec{}, fmt.Errorf("unknown policy %q (registered: %s)",
				r.Policy, strings.Join(controller.Names(), ", "))
		}
		cfg.Power = cspec.Power
	}
	if r.WarmupCycles > 0 {
		cfg.WarmupCycles = int(r.WarmupCycles)
	}
	if r.MeasureCycles > 0 {
		cfg.MeasureCycles = int(r.MeasureCycles)
	}
	if r.Model != "" {
		cfg.ModelRef = r.Model
	}
	spec.Config = cfg

	if r.Workload.CPU == "" || r.Workload.GPU == "" {
		return jobSpec{}, fmt.Errorf("workload needs both cpu and gpu benchmark names")
	}
	cpu, err := traffic.ProfileByName(r.Workload.CPU)
	if err != nil {
		return jobSpec{}, err
	}
	gpu, err := traffic.ProfileByName(r.Workload.GPU)
	if err != nil {
		return jobSpec{}, err
	}
	spec.Pair = traffic.Pair{CPU: cpu, GPU: gpu}

	if r.TimeoutMS > 0 {
		spec.timeout = time.Duration(r.TimeoutMS) * time.Millisecond
	}
	return spec.finalize(defaultTimeout, reg)
}

// modelError is resolveModel's error: the registry cannot serve a
// model-needing configuration. A sweep skips such a point.
type modelError struct{ error }

// resolveModel finds the hosted artifact serving a PowerML
// configuration: cfg.ModelRef (name or content hash), defaulting to
// "rw<window>" — the name pearltrain's conventional output files and
// the upload walkthrough use.
func resolveModel(cfg config.Config, reg *models.Registry) (*models.Artifact, error) {
	ref := cfg.ModelRef
	if ref == "" {
		ref = fmt.Sprintf("rw%d", cfg.ReservationWindow)
	}
	var art *models.Artifact
	ok := false
	if reg != nil {
		art, ok = reg.Resolve(ref)
	}
	if !ok {
		return nil, modelError{fmt.Errorf("no hosted model %q for %s: train one (pearltrain -window %d -out %s.json), then upload it with POST /v1/models?name=%s or start pearld with -model-dir",
			ref, cfg.Name(), cfg.ReservationWindow, ref, ref)}
	}
	if art.Window != cfg.ReservationWindow {
		return nil, modelError{fmt.Errorf("model %q was trained for RW%d but configuration %s uses RW%d",
			ref, art.Window, cfg.Name(), cfg.ReservationWindow)}
	}
	return art, nil
}

// finalize validates an assembled spec (from a job request or a batch
// sweep point) against the server's policy, normalizes and binds its
// identity (experiments.Spec: PowerML pearl specs resolve their model
// against reg here, pinning its content hash into the key) and
// defaults the timeout. It is the single gate every executable spec
// passes through.
func (s jobSpec) finalize(defaultTimeout time.Duration, reg *models.Registry) (jobSpec, error) {
	switch s.Backend {
	case "", BackendPEARL, BackendCMESH:
	default:
		return jobSpec{}, fmt.Errorf("unknown backend %q (want %q or %q)", s.Backend, BackendPEARL, BackendCMESH)
	}
	if err := s.Config.Validate(); err != nil {
		return jobSpec{}, err
	}
	if s.Config.MeasureCycles > maxMeasureCycles {
		return jobSpec{}, fmt.Errorf("measure cycles %d above server limit %d", s.Config.MeasureCycles, maxMeasureCycles)
	}
	if s.Config.WarmupCycles > maxWarmupCycles {
		return jobSpec{}, fmt.Errorf("warmup cycles %d above server limit %d", s.Config.WarmupCycles, maxWarmupCycles)
	}
	if s.Pair.CPU.Name == "" || s.Pair.GPU.Name == "" {
		return jobSpec{}, fmt.Errorf("workload needs both cpu and gpu benchmark names")
	}
	s.Normalize()
	if err := s.Bind(func(cfg config.Config) (*models.Artifact, error) { return resolveModel(cfg, reg) }); err != nil {
		return jobSpec{}, err
	}
	if s.timeout <= 0 {
		s.timeout = defaultTimeout
	}
	return s, nil
}

// applyOverrides returns cfg with Go-field-named overrides merged in
// via a strict JSON round trip, so a typoed field name is a 400, not a
// silent no-op. cfg is taken and returned by value so that only a
// request with overrides pays for the copy the decoder writes into.
func applyOverrides(cfg config.Config, overrides map[string]any) (config.Config, error) {
	raw, err := json.Marshal(overrides)
	if err != nil {
		return cfg, fmt.Errorf("config overrides: %w", err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		return cfg, fmt.Errorf("config overrides: %w", err)
	}
	return cfg, nil
}

// JobResult is the measurement payload of a completed job: the run's
// experiments.Summary, which is also what the cache layers and
// `pearlbench -sweep -cache-dir` store for its key.
type JobResult = experiments.Summary

// JobStatus is the poll payload for a job in any state.
type JobStatus struct {
	ID    string `json:"id"`
	State string `json:"state"`
	// Tenant is the authenticated principal that submitted the job
	// ("anonymous" when no tenants file is configured).
	Tenant  string `json:"tenant,omitempty"`
	Backend string `json:"backend"`
	Config  string `json:"config"`
	Pair    string `json:"pair"`
	// Model is the content hash of the artifact serving a PowerML job
	// (the resolved, pinned version — not the name the request used).
	Model    string `json:"model,omitempty"`
	CacheKey string `json:"cache_key"`
	Cached   bool   `json:"cached"`
	// Coalesced marks a job that attached to identical in-flight work
	// (singleflight) instead of simulating on its own.
	Coalesced   bool   `json:"coalesced,omitempty"`
	Error       string `json:"error,omitempty"`
	SubmittedAt string `json:"submitted_at"`
	StartedAt   string `json:"started_at,omitempty"`
	FinishedAt  string `json:"finished_at,omitempty"`
	ElapsedMS   int64  `json:"elapsed_ms,omitempty"`
}
