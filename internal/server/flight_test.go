package server

import (
	"encoding/json"
	"testing"
)

// newBareServer builds a daemon without an HTTP front end for tests
// that drive admit directly.
func newBareServer(t testing.TB, opts Options) *Server {
	t.Helper()
	s, err := New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { forceShutdown(s) })
	return s
}

// resolveSpec turns a JSON job body into the executable spec, exactly
// as handleSubmit would.
func resolveSpec(t testing.TB, s *Server, body string) jobSpec {
	t.Helper()
	var req JobRequest
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	spec, err := req.resolve(s.opts.DefaultTimeout, s.models)
	if err != nil {
		t.Fatalf("resolve: %v", err)
	}
	return spec
}

// flightLen snapshots the in-flight table size.
func flightLen(s *Server) int {
	s.flight.mu.Lock()
	defer s.flight.mu.Unlock()
	return len(s.flight.inflight)
}

// TestAdmitRecheckHitCountsExactlyOneVerdict pins the
// leader-completes-between-lookup-and-lock window deterministically:
// the test hook publishes the result after admit's first lookup misses,
// so the submission is resolved by the under-lock recheck. That path
// must record exactly one cache verdict — a hit — not a miss followed
// by a hit.
func TestAdmitRecheckHitCountsExactlyOneVerdict(t *testing.T) {
	s := newBareServer(t, Options{Workers: 1})
	spec := resolveSpec(t, s, quickJob)
	want := testResult(3.5)
	s.testHookAfterCacheMiss = func(j *Job) { s.cache.Put(j.key, want) }

	anon := s.tenants.Anonymous()
	job := s.buildJob(&spec, anon, "")
	if got := s.admit(job, spec, anon, nil); got != admitCached {
		t.Fatalf("admit = %v, want admitCached (recheck hit)", got)
	}
	if st := job.Status(); st.State != string(StateDone) || !st.Cached {
		t.Fatalf("recheck-hit job status %+v, want done+cached", st)
	}
	m := s.metrics.snapshot(0, 0, 0, 0, diskSnapshot{}, 0, tenantGauges{})
	if m.CacheHits != 1 || m.CacheMisses != 0 {
		t.Fatalf("recheck hit recorded hits=%d misses=%d, want 1/0 (a hit double-counted as a miss skews the hit rate)",
			m.CacheHits, m.CacheMisses)
	}
	if n := flightLen(s); n != 0 {
		t.Fatalf("recheck hit left %d flight entries", n)
	}
}

// TestAdmitRecheckConsultsDiskLayer: the under-lock recheck must see
// the full cache stack. The leader's freshly published result may
// already have been evicted from the memory LRU while the disk layer
// still holds it — a recheck blind to disk would re-simulate the point.
func TestAdmitRecheckConsultsDiskLayer(t *testing.T) {
	s := newBareServer(t, Options{Workers: 1, CacheCapacity: 1, CacheDir: t.TempDir()})
	spec := resolveSpec(t, s, quickJob)
	want := testResult(7)
	// The result exists only on disk when the recheck runs: the first
	// lookup saw nothing, and the memory LRU never held it.
	s.testHookAfterCacheMiss = func(j *Job) {
		if err := s.disk.Put(j.key, want); err != nil {
			t.Errorf("seeding disk entry: %v", err)
		}
	}

	anon := s.tenants.Anonymous()
	job := s.buildJob(&spec, anon, "")
	if got := s.admit(job, spec, anon, nil); got != admitCached {
		t.Fatalf("admit = %v, want admitCached (disk-layer recheck hit)", got)
	}
	if res, done := job.Result(); !done || res == nil || res.ThroughputBitsPerCycle != want.ThroughputBitsPerCycle {
		t.Fatalf("job settled with (%+v, %v), want the disk entry", res, done)
	}
	m := s.metrics.snapshot(0, 0, 0, 0, diskSnapshot{}, 0, tenantGauges{})
	if m.CacheHits != 1 || m.CacheDiskHits != 1 || m.CacheMisses != 0 {
		t.Fatalf("disk recheck recorded hits=%d diskHits=%d misses=%d, want 1/1/0",
			m.CacheHits, m.CacheDiskHits, m.CacheMisses)
	}
	if n := flightLen(s); n != 0 {
		t.Fatalf("disk recheck hit left %d flight entries (the job would re-simulate)", n)
	}
}
