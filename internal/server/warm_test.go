package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"testing"

	"repro/internal/config"
	"repro/internal/experiments"
	"repro/internal/traffic"
)

// goldenSpec mirrors goldenJob for in-process key computation.
func goldenSpec(t *testing.T) experiments.Spec {
	t.Helper()
	cfg, err := config.ByName("static-32")
	if err != nil {
		t.Fatal(err)
	}
	cfg.WarmupCycles = 200
	cfg.MeasureCycles = 4000
	cpu, err := traffic.ProfileByName("fmm")
	if err != nil {
		t.Fatal(err)
	}
	gpu, err := traffic.ProfileByName("DCT")
	if err != nil {
		t.Fatal(err)
	}
	return experiments.Spec{Point: experiments.Point{Config: cfg, Pair: traffic.Pair{CPU: cpu, GPU: gpu}}}
}

// TestSpecKeyMatchesServerKey proves the key of an experiments.Spec —
// what `pearlbench -sweep -cache-dir` names its entries by — agrees with the
// content hash the server assigns the equivalent job submission.
func TestSpecKeyMatchesServerKey(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	code, st := postJob(t, ts, goldenJob)
	if code != http.StatusOK && code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	// Defaults normalize the same way the server's resolver does.
	spec := goldenSpec(t)
	if key := spec.Key(); key != st.CacheKey {
		t.Fatalf("defaulted Spec key %s != server key %s", key, st.CacheKey)
	}
	spec.Backend, spec.Seed, spec.LinkScale = BackendPEARL, 2018, 1
	if key := spec.Key(); key != st.CacheKey {
		t.Fatalf("explicit Spec key %s != server key %s", key, st.CacheKey)
	}
}

// TestWarmCacheServesWithoutSimulating round-trips a result through a
// cache directory written by WriteCacheDir (what `pearlbench -sweep
// -cache-dir` calls): run once, write the entry, start a fresh daemon
// on that directory, and watch the resubmission come back cached with
// zero simulations.
func TestWarmCacheServesWithoutSimulating(t *testing.T) {
	_, ts1 := newTestServer(t, Options{Workers: 1})
	raw, st := resultBytes(t, ts1, goldenJob)
	var res JobResult
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	if err := WriteCacheDir(dir, []CacheEntry{{Key: st.CacheKey, Result: &res}}); err != nil {
		t.Fatal(err)
	}

	_, ts2 := newTestServer(t, Options{Workers: 1, CacheDir: dir})
	code, warmed := postJob(t, ts2, goldenJob)
	if code != http.StatusOK {
		t.Fatalf("warmed submit: HTTP %d, want 200", code)
	}
	if !warmed.Cached || warmed.State != string(StateDone) {
		t.Fatalf("warmed job: %+v", warmed)
	}
	m := snapshotMetrics(t, ts2)
	if m.JobsStarted != 0 || m.CacheHits != 1 || m.CacheDiskHits != 1 {
		t.Fatalf("warmed metrics: started=%d hits=%d disk hits=%d", m.JobsStarted, m.CacheHits, m.CacheDiskHits)
	}

	warmedRaw, _ := resultBytes(t, ts2, goldenJob)
	if string(warmedRaw) != string(raw) {
		t.Fatalf("warmed result differs from the original:\n%s\nvs\n%s", warmedRaw, raw)
	}
}

// TestResultPayloadMatchesWorker: the Summary of a direct run is the
// payload the worker stores for the same spec, so a cache directory
// `pearlbench -sweep` writes holds exactly what the daemon would have
// computed.
func TestResultPayloadMatchesWorker(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1})
	_, st := resultBytes(t, ts, goldenJob)
	hit, _, ok := s.lookup(st.CacheKey)
	if !ok {
		t.Fatalf("no cached result under the job's key %s", st.CacheKey)
	}
	spec := goldenSpec(t)
	res, err := experiments.Run(context.Background(), spec.Point, spec.Options())
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(experiments.Summarize(res))
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(hit.result)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("worker stored\n%s\nthe direct run's Summary is\n%s", got, want)
	}
}
