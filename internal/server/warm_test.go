package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
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
// what `pearlbench -cache-out` stamps on artifacts — agrees with the
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
// warm artifact: run once, export, warm a fresh daemon, and watch the
// resubmission come back cached with zero simulations.
func TestWarmCacheServesWithoutSimulating(t *testing.T) {
	_, ts1 := newTestServer(t, Options{Workers: 1})
	raw, st := resultBytes(t, ts1, goldenJob)
	var res JobResult
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	artifact := filepath.Join(dir, "warm_golden.json")
	payload, err := json.Marshal([]CacheEntry{{Key: st.CacheKey, Result: &res}})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(artifact, payload, 0o644); err != nil {
		t.Fatal(err)
	}
	// A pearlbench timing file sits in the same directory; warming must
	// skip its records rather than choke on them.
	bench := []byte(`[{"name":"artifact_5","iters":1,"ns_per_op":12.5,"bytes_per_op":100}]`)
	if err := os.WriteFile(filepath.Join(dir, "BENCH_quick.json"), bench, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, ts2 := newTestServer(t, Options{Workers: 1})
	stats, err := s2.WarmCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Files != 2 || stats.Loaded != 1 || stats.Skipped == 0 || stats.Errors != 0 {
		t.Fatalf("warm stats: %s", stats)
	}

	code, warmed := postJob(t, ts2, goldenJob)
	if code != http.StatusOK {
		t.Fatalf("warmed submit: HTTP %d, want 200", code)
	}
	if !warmed.Cached || warmed.State != string(StateDone) {
		t.Fatalf("warmed job: %+v", warmed)
	}
	m := snapshotMetrics(t, ts2)
	if m.JobsStarted != 0 || m.CacheHits != 1 || m.CacheWarmed != 1 {
		t.Fatalf("warmed metrics: started=%d hits=%d warmed=%d", m.JobsStarted, m.CacheHits, m.CacheWarmed)
	}

	warmedRaw, _ := resultBytes(t, ts2, goldenJob)
	if string(warmedRaw) != string(raw) {
		t.Fatalf("warmed result differs from the original:\n%s\nvs\n%s", warmedRaw, raw)
	}
}

// TestResultPayloadMatchesWorker: ResultPayload of a direct run is the
// payload the worker stores for the same spec, so an exported artifact
// warms a daemon with exactly what it would have computed.
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
	want, err := json.Marshal(ResultPayload(res))
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(hit.result)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("worker stored\n%s\nResultPayload of the direct run is\n%s", got, want)
	}
}

func TestWarmStatsString(t *testing.T) {
	got := WarmStats{Files: 3, Loaded: 5, Skipped: 2, Errors: 1}.String()
	if want := "3 files: 5 entries loaded, 2 skipped, 1 errors"; got != want {
		t.Fatalf("WarmStats.String() = %q, want %q", got, want)
	}
}

func TestWarmCacheMissingPath(t *testing.T) {
	s, _ := newTestServer(t, Options{Workers: 1})
	if _, err := s.WarmCache(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Fatal("warming from a missing path should error")
	}
}

func TestWarmCacheUnreadableFileCounted(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "broken.json"), []byte("{{{"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, _ := newTestServer(t, Options{Workers: 1})
	stats, err := s.WarmCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Files != 1 || stats.Errors != 1 || stats.Loaded != 0 {
		t.Fatalf("warm stats: %s", stats)
	}
}
