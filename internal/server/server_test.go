package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"
)

// newTestServer starts a daemon plus an httptest front end, cleaned up
// with a forced shutdown at test end.
func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		forceShutdown(s)
	})
	return s, ts
}

// forceShutdown cancels whatever s still runs, then waits for its
// workers: a shutdown context that has already ended.
func forceShutdown(s *Server) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_ = s.Shutdown(ctx)
}

func postJob(t *testing.T, ts *httptest.Server, body string) (int, JobStatus) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, st
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

// pollUntil polls the job until pred(status) or the deadline.
func pollUntil(t *testing.T, ts *httptest.Server, id string, pred func(JobStatus) bool, deadline time.Duration) JobStatus {
	t.Helper()
	stop := time.Now().Add(deadline)
	for {
		var st JobStatus
		if code := getJSON(t, ts.URL+"/v1/jobs/"+id, &st); code != http.StatusOK {
			t.Fatalf("poll %s: HTTP %d", id, code)
		}
		if pred(st) {
			return st
		}
		if time.Now().After(stop) {
			t.Fatalf("job %s stuck in state %s after %v", id, st.State, deadline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

const quickJob = `{"workload":{"cpu":"fmm","gpu":"DCT"},"warmup_cycles":200,"measure_cycles":2000}`

// longJob runs tens of seconds uninterrupted — used to observe the
// running state and cancellation; tests never let it finish.
const longJob = `{"workload":{"cpu":"canneal","gpu":"MatrixMultiply"},"warmup_cycles":200,"measure_cycles":5000000}`

// mediumJob is long enough that a job observed running still has
// hundreds of milliseconds left (the drain test posts a second job and
// shuts down inside that window) yet completes quickly when drained.
const mediumJob = `{"workload":{"cpu":"fmm","gpu":"DCT"},"seed":31,"warmup_cycles":200,"measure_cycles":300000}`

func TestSubmitPollFetchLifecycle(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 2})
	code, st := postJob(t, ts, quickJob)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	if st.State == string(StateFailed) || st.State == string(StateCancelled) {
		t.Fatalf("fresh job state %q (error %q)", st.State, st.Error)
	}
	if st.Config != "PEARL-Dyn(64WL)" || st.Pair != "fmm+DCT" {
		t.Fatalf("resolved config/pair = %q/%q", st.Config, st.Pair)
	}
	done := pollUntil(t, ts, st.ID, func(s JobStatus) bool { return JobState(s.State).Terminal() }, 30*time.Second)
	if done.State != string(StateDone) {
		t.Fatalf("job finished %s (error %q)", done.State, done.Error)
	}
	var res JobResult
	if code := getJSON(t, ts.URL+"/v1/jobs/"+st.ID+"/result", &res); code != http.StatusOK {
		t.Fatalf("result: HTTP %d", code)
	}
	if res.ThroughputBitsPerCycle <= 0 {
		t.Fatalf("throughput %v, want > 0", res.ThroughputBitsPerCycle)
	}
	if res.DeliveredPackets == 0 || res.P99LatencyCycles < res.P50LatencyCycles {
		t.Fatalf("implausible result: %+v", res)
	}
	_ = s
}

func TestIdenticalResubmissionIsCacheHit(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1})
	_, first := postJob(t, ts, quickJob)
	pollUntil(t, ts, first.ID, func(s JobStatus) bool { return s.State == string(StateDone) }, 30*time.Second)

	code, second := postJob(t, ts, quickJob)
	if code != http.StatusOK {
		t.Fatalf("cache-hit submit: HTTP %d, want 200", code)
	}
	if !second.Cached || second.State != string(StateDone) {
		t.Fatalf("resubmission not served from cache: %+v", second)
	}
	if second.CacheKey != first.CacheKey {
		t.Fatalf("cache keys differ: %s vs %s", first.CacheKey, second.CacheKey)
	}

	var m MetricsSnapshot
	getJSON(t, ts.URL+"/metrics", &m)
	if m.JobsStarted != 1 {
		t.Fatalf("second simulation executed: started=%d, want 1", m.JobsStarted)
	}
	if m.CacheHits != 1 || m.CacheMisses != 1 {
		t.Fatalf("cache counters hits=%d misses=%d, want 1/1", m.CacheHits, m.CacheMisses)
	}

	// Both jobs must serve byte-identical results.
	var r1, r2 JobResult
	getJSON(t, ts.URL+"/v1/jobs/"+first.ID+"/result", &r1)
	getJSON(t, ts.URL+"/v1/jobs/"+second.ID+"/result", &r2)
	if !resultsEqual(r1, r2) {
		t.Fatalf("cached result differs:\n%+v\n%+v", r1, r2)
	}
	_ = s
}

// liveHeap is the heap still reachable after a collection.
func liveHeap() int64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// TestCacheHitJobRetention pins what a finished job leaves behind in
// the daemon. The registry keeps the latest retainedRecords settled
// jobs, so a cache hit's footprint is what that bound multiplies. A hit is a
// compact record — identity, status and a result reference — measured
// at about 430 B with its registry entry; it was 1.7 KB while every hit
// also kept a context, an event ring holding its end frame, subscriber
// closures and a private copy of the job spec. The bar is 640 B.
func TestCacheHitJobRetention(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	_, first := postJob(t, ts, quickJob)
	pollUntil(t, ts, first.ID, func(s JobStatus) bool { return s.State == string(StateDone) }, 30*time.Second)
	hit := func() {
		t.Helper()
		if code, st := postJob(t, ts, quickJob); code != http.StatusOK || !st.Cached {
			t.Fatalf("resubmission not a cache hit: HTTP %d, %+v", code, st)
		}
	}
	// Let connection pools, maps and the HTTP server reach their
	// steady size before the first reading.
	for i := 0; i < 200; i++ {
		hit()
	}
	const jobs = 2000
	before := liveHeap()
	for i := 0; i < jobs; i++ {
		hit()
	}
	if perJob := (liveHeap() - before) / jobs; perJob > 640 {
		t.Fatalf("each cache-hit job retains %d B of live heap, want under 640", perJob)
	}
}

// TestExecutedJobRetention is TestCacheHitJobRetention for jobs that
// ran: a settled 20k-cycle dyn-rw500 job keeps its record, its cached
// result and a feed ring of 41 frames (40 windows and the end frame)
// until the registry retires it. The ring keeps each window as its
// measurement and source job, marshalled only when a reader asks; while
// it kept each frame's JSON a job retained 18–19 KB, about 17 KB of it
// in frames. The bar is 10 KB.
func TestExecutedJobRetention(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	seed := 0
	run := func() {
		t.Helper()
		seed++
		code, st := postJob(t, ts, fmt.Sprintf(`{"preset":"dyn-rw500","workload":{"cpu":"fmm","gpu":"DCT"},"seed":%d,"warmup_cycles":200,"measure_cycles":20000}`, seed))
		if code != http.StatusAccepted {
			t.Fatalf("seed %d: HTTP %d, want 202 (a fresh run)", seed, code)
		}
		pollUntil(t, ts, st.ID, func(s JobStatus) bool { return s.State == string(StateDone) }, 60*time.Second)
	}
	// Let connection pools, maps, the cache and the HTTP server reach
	// their steady size before the first reading.
	for i := 0; i < 8; i++ {
		run()
	}
	const jobs = 64
	before := liveHeap()
	for i := 0; i < jobs; i++ {
		run()
	}
	perJob := (liveHeap() - before) / jobs
	t.Logf("each executed job retains %d B", perJob)
	if perJob > 10<<10 {
		t.Fatalf("each executed job retains %d B of live heap, want under 10 KB", perJob)
	}
}

// resultsEqual compares payloads including the residency map.
func resultsEqual(a, b JobResult) bool {
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	return bytes.Equal(ja, jb)
}

func TestDifferentSeedMissesCache(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	_, first := postJob(t, ts, quickJob)
	pollUntil(t, ts, first.ID, func(s JobStatus) bool { return s.State == string(StateDone) }, 30*time.Second)
	code, second := postJob(t, ts, `{"workload":{"cpu":"fmm","gpu":"DCT"},"warmup_cycles":200,"measure_cycles":2000,"seed":7}`)
	if code != http.StatusAccepted {
		t.Fatalf("different-seed submit: HTTP %d, want 202 (a fresh run)", code)
	}
	if second.Cached || second.CacheKey == first.CacheKey {
		t.Fatalf("seed change should change the cache key: %+v", second)
	}
}

func TestCancelRunningJob(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	_, st := postJob(t, ts, longJob)
	pollUntil(t, ts, st.ID, func(s JobStatus) bool { return s.State == string(StateRunning) }, 10*time.Second)

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel: HTTP %d", resp.StatusCode)
	}
	// The simulation checks its context every ~1k cycles, so the job
	// must flip to cancelled well within one client poll interval.
	done := pollUntil(t, ts, st.ID, func(s JobStatus) bool { return JobState(s.State).Terminal() }, 2*time.Second)
	if done.State != string(StateCancelled) {
		t.Fatalf("cancelled job finished as %s", done.State)
	}
	if code := getJSON(t, ts.URL+"/v1/jobs/"+st.ID+"/result", nil); code != http.StatusConflict {
		t.Fatalf("result of cancelled job: HTTP %d, want 409", code)
	}
	var m MetricsSnapshot
	getJSON(t, ts.URL+"/metrics", &m)
	if m.JobsCancelled != 1 {
		t.Fatalf("cancelled counter %d, want 1", m.JobsCancelled)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 4})
	_, running := postJob(t, ts, longJob)
	pollUntil(t, ts, running.ID, func(s JobStatus) bool { return s.State == string(StateRunning) }, 10*time.Second)
	_, queued := postJob(t, ts, quickJob)

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+queued.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.State != string(StateCancelled) {
		t.Fatalf("queued job after cancel: %s, want cancelled immediately", st.State)
	}
	// Double-cancel of a terminal job conflicts.
	req2, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+queued.ID, nil)
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusConflict {
		t.Fatalf("double cancel: HTTP %d, want 409", resp2.StatusCode)
	}
}

func TestMetricsCountersMatchObservedJobs(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	ids := make([]string, 0, 3)
	for seed := 1; seed <= 3; seed++ {
		body := fmt.Sprintf(`{"workload":{"cpu":"fmm","gpu":"DCT"},"warmup_cycles":200,"measure_cycles":2000,"seed":%d}`, seed)
		_, st := postJob(t, ts, body)
		ids = append(ids, st.ID)
	}
	for _, id := range ids {
		pollUntil(t, ts, id, func(s JobStatus) bool { return s.State == string(StateDone) }, 30*time.Second)
	}
	var m MetricsSnapshot
	getJSON(t, ts.URL+"/metrics", &m)
	if m.JobsSubmitted != 3 || m.JobsStarted != 3 || m.JobsCompleted != 3 {
		t.Fatalf("counters submitted=%d started=%d completed=%d, want 3/3/3",
			m.JobsSubmitted, m.JobsStarted, m.JobsCompleted)
	}
	if m.JobsFailed != 0 || m.JobsCancelled != 0 {
		t.Fatalf("unexpected failures/cancels: %+v", m)
	}
	if m.CacheMisses != 3 || m.CacheEntries != 3 {
		t.Fatalf("cache misses=%d entries=%d, want 3/3", m.CacheMisses, m.CacheEntries)
	}
	if m.JobLatencyP50S <= 0 || m.JobLatencyP99S < m.JobLatencyP50S {
		t.Fatalf("latency quantiles p50=%v p99=%v", m.JobLatencyP50S, m.JobLatencyP99S)
	}
	if m.Workers != 2 || m.QueueCapacity == 0 {
		t.Fatalf("pool shape %+v", m)
	}
}

func TestSubmitValidation(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	cases := []struct {
		name, body string
	}{
		{"empty body", ``},
		{"unknown field", `{"workloadz":{}}`},
		{"missing workload", `{"measure_cycles":1000}`},
		{"unknown benchmark", `{"workload":{"cpu":"nope","gpu":"DCT"}}`},
		{"unknown backend", `{"backend":"quantum","workload":{"cpu":"fmm","gpu":"DCT"}}`},
		{"unknown preset", `{"preset":"warp-drive","workload":{"cpu":"fmm","gpu":"DCT"}}`},
		{"ml preset needs model", `{"preset":"ml-rw500","workload":{"cpu":"fmm","gpu":"DCT"}}`},
		{"typoed config override", `{"config":{"StaticWavelengthz":32},"workload":{"cpu":"fmm","gpu":"DCT"}}`},
		{"invalid config value", `{"config":{"StaticWavelengths":33},"workload":{"cpu":"fmm","gpu":"DCT"}}`},
		{"measure cycles above limit", `{"measure_cycles":99000000,"workload":{"cpu":"fmm","gpu":"DCT"}}`},
	}
	for _, tc := range cases {
		if code, _ := postJob(t, ts, tc.body); code != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d, want 400", tc.name, code)
		}
	}
	var m MetricsSnapshot
	getJSON(t, ts.URL+"/metrics", &m)
	if m.JobsSubmitted != 0 {
		t.Fatalf("rejected requests counted as submitted: %d", m.JobsSubmitted)
	}
}

func TestConfigOverridesAndPresetsResolve(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	code, st := postJob(t, ts, `{"preset":"dyn-rw500","config":{"ReservationWindow":2000},"workload":{"cpu":"fmm","gpu":"DCT"},"warmup_cycles":200,"measure_cycles":2000}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	if st.Config != "Dyn RW2000" {
		t.Fatalf("override not applied: config %q, want Dyn RW2000", st.Config)
	}
	code, st = postJob(t, ts, `{"backend":"cmesh","workload":{"cpu":"fmm","gpu":"DCT"},"warmup_cycles":200,"measure_cycles":2000}`)
	if code != http.StatusAccepted {
		t.Fatalf("cmesh submit: HTTP %d", code)
	}
	done := pollUntil(t, ts, st.ID, func(s JobStatus) bool { return JobState(s.State).Terminal() }, 30*time.Second)
	if done.State != string(StateDone) {
		t.Fatalf("cmesh job %s (error %q)", done.State, done.Error)
	}
	var res JobResult
	getJSON(t, ts.URL+"/v1/jobs/"+st.ID+"/result", &res)
	if res.Config != "CMESH" {
		t.Fatalf("cmesh result config %q", res.Config)
	}
}

// TestJobPolicyField covers the JobRequest.Policy override: a
// registered controller name retargets the resolved configuration's
// power policy, and unknown names are rejected with the registered
// list so clients can self-correct.
func TestJobPolicyField(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})

	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		bytes.NewReader([]byte(`{"policy":"turbo","workload":{"cpu":"fmm","gpu":"DCT"}}`)))
	if err != nil {
		t.Fatal(err)
	}
	var apiErr apiError
	if err := json.NewDecoder(resp.Body).Decode(&apiErr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown policy: HTTP %d, want 400", resp.StatusCode)
	}
	for _, name := range []string{"turbo", "static", "reactive", "ml", "proteus", "d3noc"} {
		if !strings.Contains(apiErr.Error, name) {
			t.Fatalf("unknown-policy error %q does not mention %q", apiErr.Error, name)
		}
	}

	code, st := postJob(t, ts, `{"policy":"proteus","workload":{"cpu":"fmm","gpu":"DCT"},"warmup_cycles":200,"measure_cycles":2000}`)
	if code != http.StatusAccepted {
		t.Fatalf("proteus submit: HTTP %d", code)
	}
	if st.Config != "PROTEUS RW500" {
		t.Fatalf("policy override resolved to %q, want PROTEUS RW500", st.Config)
	}
	done := pollUntil(t, ts, st.ID, func(s JobStatus) bool { return JobState(s.State).Terminal() }, 30*time.Second)
	if done.State != string(StateDone) {
		t.Fatalf("proteus job finished %s (error %q)", done.State, done.Error)
	}
}

func TestQueueFullRejects(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 1})
	_, running := postJob(t, ts, longJob)
	pollUntil(t, ts, running.ID, func(s JobStatus) bool { return s.State == string(StateRunning) }, 10*time.Second)
	// Worker busy; one slot in the queue, the next must bounce.
	if code, _ := postJob(t, ts, `{"workload":{"cpu":"fmm","gpu":"DCT"},"seed":11,"warmup_cycles":200,"measure_cycles":2000}`); code != http.StatusAccepted {
		t.Fatalf("first queued job: HTTP %d", code)
	}
	code, _ := postJob(t, ts, `{"workload":{"cpu":"fmm","gpu":"DCT"},"seed":12,"warmup_cycles":200,"measure_cycles":2000}`)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("overflow submit: HTTP %d, want 503", code)
	}
	var m MetricsSnapshot
	getJSON(t, ts.URL+"/metrics", &m)
	if m.JobsRejected != 1 {
		t.Fatalf("rejected counter %d, want 1", m.JobsRejected)
	}
}

func TestJobTimeoutFails(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, DefaultTimeout: 50 * time.Millisecond})
	_, st := postJob(t, ts, longJob)
	done := pollUntil(t, ts, st.ID, func(s JobStatus) bool { return JobState(s.State).Terminal() }, 10*time.Second)
	if done.State != string(StateFailed) {
		t.Fatalf("timed-out job state %s, want failed", done.State)
	}
	if done.Error == "" {
		t.Fatal("timed-out job carries no error")
	}
}

func TestUnknownJob404s(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	if code := getJSON(t, ts.URL+"/v1/jobs/job-999999", nil); code != http.StatusNotFound {
		t.Fatalf("unknown job: HTTP %d", code)
	}
	if code := getJSON(t, ts.URL+"/v1/jobs/job-999999/result", nil); code != http.StatusNotFound {
		t.Fatalf("unknown result: HTTP %d", code)
	}
}

func TestResultBeforeDoneConflicts(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	_, st := postJob(t, ts, longJob)
	var poll JobStatus
	if code := getJSON(t, ts.URL+"/v1/jobs/"+st.ID+"/result", &poll); code != http.StatusConflict {
		t.Fatalf("early result fetch: HTTP %d, want 409", code)
	}
	if poll.ID != st.ID {
		t.Fatalf("409 body should carry the job status, got %+v", poll)
	}
}

func TestShutdownDrainsInFlightAndCancelsQueued(t *testing.T) {
	s, err := New(Options{Workers: 1, QueueDepth: 4})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()

	_, inflight := postJob(t, ts, mediumJob)
	pollUntil(t, ts, inflight.ID, func(st JobStatus) bool { return st.State == string(StateRunning) }, 10*time.Second)
	_, queued := postJob(t, ts, `{"workload":{"cpu":"fmm","gpu":"DCT"},"seed":21,"warmup_cycles":200,"measure_cycles":2000}`)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	if st := statusOf(t, s, inflight.ID); st.State != string(StateDone) {
		t.Fatalf("in-flight job after drain: %s (error %q), want done", st.State, st.Error)
	}
	if st := statusOf(t, s, queued.ID); st.State != string(StateCancelled) {
		t.Fatalf("queued job after drain: %s, want cancelled", st.State)
	}
	if code, _ := postJob(t, ts, quickJob); code != http.StatusServiceUnavailable {
		t.Fatalf("submit after drain: HTTP %d, want 503", code)
	}
	var health map[string]string
	getJSON(t, ts.URL+"/healthz", &health)
	if health["status"] != "draining" {
		t.Fatalf("healthz after drain: %v", health)
	}
}

// statusOf reads a job's status straight off the server (the HTTP
// surface stays up during drain, but this avoids depending on it).
func statusOf(t *testing.T, s *Server, id string) JobStatus {
	t.Helper()
	job, ok := s.reg.get(id)
	if !ok {
		t.Fatalf("job %s missing from registry", id)
	}
	return job.Status()
}

func TestForcedShutdownCancelsInFlight(t *testing.T) {
	s, err := New(Options{Workers: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()
	_, st := postJob(t, ts, longJob)
	pollUntil(t, ts, st.ID, func(s JobStatus) bool { return s.State == string(StateRunning) }, 10*time.Second)

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); err == nil {
		t.Fatal("forced shutdown should report the deadline error")
	}
	if got := statusOf(t, s, st.ID); got.State != string(StateCancelled) {
		t.Fatalf("in-flight job after forced shutdown: %s, want cancelled", got.State)
	}
}

func TestDeterministicResultsAcrossServers(t *testing.T) {
	// The same spec on two independent daemons must produce identical
	// payloads — the property that makes a cache entry sound to carry
	// from one daemon to another (GET /v1/cache/{key}, a shared -cache-dir).
	run := func() JobResult {
		_, ts := newTestServer(t, Options{Workers: 1})
		_, st := postJob(t, ts, quickJob)
		pollUntil(t, ts, st.ID, func(s JobStatus) bool { return s.State == string(StateDone) }, 30*time.Second)
		var res JobResult
		getJSON(t, ts.URL+"/v1/jobs/"+st.ID+"/result", &res)
		return res
	}
	a, b := run(), run()
	if !resultsEqual(a, b) {
		t.Fatalf("same spec, different results:\n%+v\n%+v", a, b)
	}
}
