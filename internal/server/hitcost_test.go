//go:build !race

package server

import (
	"net/http"
	"testing"
)

// hotJob has the shape of the benchmark's repeated-key requests: a
// preset, with backend, seed, run lengths and link scale spelled out.
const hotJob = `{"backend":"pearl","preset":"pearl-dyn","workload":{"cpu":"fmm","gpu":"DCT"},"seed":2018,"warmup_cycles":200,"measure_cycles":2000,"link_scale":1}`

// hitServer returns a server whose result cache holds hotJob's result
// and whose registry is already at its retention bound, so every
// further submission is a cache hit that files one record and retires
// another: the daemon's steady state under repeated keys.
func hitServer(tb testing.TB) *Server {
	tb.Helper()
	s := newBareServer(tb, Options{Workers: 1})
	s.cache.Put(resolveSpec(tb, s, hotJob).Key(), testResult(1))
	for i := 0; i <= retainedRecords; i++ {
		submitHit(tb, s)
	}
	return s
}

// submitHit posts hotJob through Server.ServeHTTP, with no socket, and
// fails unless it is answered from the cache.
func submitHit(tb testing.TB, s *Server) {
	if code, body := serve(s, http.MethodPost, "/v1/jobs", hotJob); code != http.StatusOK {
		tb.Fatalf("POST /v1/jobs: HTTP %d, want a 200 cache hit: %s", code, body)
	}
}

// BenchmarkSubmitCached is the cost of answering a resubmitted key:
// decode, resolve, cache key, LRU lookup, a compact terminal record
// filed in the registry, and the status encoded back. The request and
// recorder the harness builds are part of each op.
func BenchmarkSubmitCached(b *testing.B) {
	s := hitServer(b)
	b.ReportAllocs()
	for b.Loop() {
		submitHit(b, s)
	}
}

// TestCachedSubmitAllocs pins the allocations of one cache-hit
// submission, harness included: 51 on go1.24, where the path allocated
// 93 while the cache key went through fmt, the profile tables were
// rebuilt per lookup and the status was indented. The ceiling leaves
// room for a few allocations of toolchain drift, not for a formatting
// round trip coming back. Built without the race detector, whose
// bookkeeping AllocsPerRun would count.
func TestCachedSubmitAllocs(t *testing.T) {
	s := hitServer(t)
	const ceiling = 56
	got := testing.AllocsPerRun(1000, func() { submitHit(t, s) })
	t.Logf("a cached POST /v1/jobs allocates %v times", got)
	if got > ceiling {
		t.Fatalf("a cached POST /v1/jobs allocates %v times, ceiling %d", got, ceiling)
	}
}

// cachedBatchServer returns a server whose result cache holds every
// point of sixteenPairBatch and whose registries are already at their
// retention bound, so every further submission of that batch is born
// terminal and files one batch and 16 records while retiring as many.
func cachedBatchServer(tb testing.TB) *Server {
	tb.Helper()
	s := newBareServer(tb, Options{Workers: 1})
	results := sixteenPairResults(tb, s)
	for key, res := range results {
		s.cache.Put(key, res)
	}
	for i := 0; i <= retainedRecords/len(results); i++ {
		submitCachedBatch(tb, s)
	}
	return s
}

// BenchmarkSubmitCachedBatch is the cost of answering a resubmitted
// 16-point batch: decode, expansion, 16 cache lookups and hit records,
// a batch settled at birth, and its status with every point encoded
// back.
func BenchmarkSubmitCachedBatch(b *testing.B) {
	s := cachedBatchServer(b)
	b.ReportAllocs()
	for b.Loop() {
		submitCachedBatch(b, s)
	}
}

// TestCachedBatchSubmitAllocs pins the allocations of one fully cached
// 16-point batch submission, harness and request body included: 301 on
// go1.24. It was 1,359 while each member fired a progress subscriber
// that formatted every member's status to count states and appended a
// frame carrying the series table to a ring the batch kept. The ceiling
// leaves room for toolchain drift, not for per-member frames coming
// back.
func TestCachedBatchSubmitAllocs(t *testing.T) {
	s := cachedBatchServer(t)
	const ceiling = 330
	got := testing.AllocsPerRun(200, func() { submitCachedBatch(t, s) })
	t.Logf("a cached 16-point POST /v1/batches allocates %v times", got)
	if got > ceiling {
		t.Fatalf("a cached 16-point POST /v1/batches allocates %v times, ceiling %d", got, ceiling)
	}
}
