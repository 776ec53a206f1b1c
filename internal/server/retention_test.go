package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// serve runs one request through s's handler, with no socket, and
// returns the status code and body.
func serve(s *Server, method, path, body string) (int, []byte) {
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest(method, path, rd))
	return w.Code, w.Body.Bytes()
}

// serveJSON is serve for a request that must answer want, decoding the
// body into out.
func serveJSON(t *testing.T, s *Server, method, path, body string, want int, out any) {
	t.Helper()
	code, data := serve(s, method, path, body)
	if code != want {
		t.Fatalf("%s %s: HTTP %d, want %d: %.300s", method, path, code, want, data)
	}
	if err := json.Unmarshal(data, out); err != nil {
		t.Fatalf("%s %s: decoding %.300s: %v", method, path, data, err)
	}
}

// metricsOf reads s's /metrics.
func metricsOf(t *testing.T, s *Server) MetricsSnapshot {
	t.Helper()
	var m MetricsSnapshot
	serveJSON(t, s, http.MethodGet, "/metrics", "", http.StatusOK, &m)
	return m
}

// settleHits registers n cache hits of spec through admit, the path a
// POST /v1/jobs hit takes once its body is decoded; spec's result must
// be cached.
func settleHits(t *testing.T, s *Server, spec jobSpec, n int) {
	t.Helper()
	anon := s.tenants.Anonymous()
	for i := 0; i < n; i++ {
		anon.AcquireSlots(1)
		if got := s.admit(s.buildJob(&spec, anon), spec, anon, nil); got != admitCached {
			t.Fatalf("hit %d: admit = %v, want admitCached", i, got)
		}
	}
}

// route is a method and a path suffix under a record's URL.
type route struct{ method, suffix string }

// Every route that names a job or a batch by id.
var (
	jobRoutes   = []route{{http.MethodGet, ""}, {http.MethodGet, "/result"}, {http.MethodGet, "/events"}, {http.MethodDelete, ""}}
	batchRoutes = []route{{http.MethodGet, ""}, {http.MethodGet, "/events"}, {http.MethodGet, "/results"}, {http.MethodDelete, ""}}
)

// wantEverywhere asserts that every route under base answers code.
func wantEverywhere(t *testing.T, s *Server, base string, routes []route, code int) {
	t.Helper()
	for _, rt := range routes {
		if got, body := serve(s, rt.method, base+rt.suffix, ""); got != code {
			t.Errorf("%s %s%s: HTTP %d, want %d: %s", rt.method, base, rt.suffix, got, code, body)
		}
	}
}

// TestRetiredIDsAnswerGone fills the daemon past retainedRecords with
// fully cached 16-point batches, then 16 single hits. That retires the
// first batch and the members of the first two, while the second batch
// is still retained. Retired ids answer 410 on every route that names
// them and ids never issued 404; the retained batch still lists its
// retired members with their results, which stay reachable by cache
// key; and the retention metrics move by exactly the records retired.
func TestRetiredIDsAnswerGone(t *testing.T) {
	s := newBareServer(t, Options{Workers: 1})
	body := sixteenPairBatch()
	var req BatchRequest
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	specs, _, err := req.expand(s.opts.DefaultTimeout, s.models)
	if err != nil {
		t.Fatal(err)
	}
	for i, spec := range specs {
		s.cache.Put(spec.Key(), testResult(float64(i+1)))
	}
	const batches = retainedRecords/16 + 1 // one batch more than the bound holds
	var second BatchStatus
	for i := 0; i < batches; i++ {
		var st BatchStatus
		serveJSON(t, s, http.MethodPost, "/v1/batches", body, http.StatusOK, &st)
		if st.Cached != 16 {
			t.Fatalf("batch %d: %d of 16 points cached", i, st.Cached)
		}
		if i == 1 {
			second = st
		}
	}
	spec := resolveSpec(t, s, quickJob)
	s.cache.Put(spec.Key(), testResult(99))
	before := metricsOf(t, s)
	settleHits(t, s, spec, 16)
	after := metricsOf(t, s)

	// 257 batches file 4,112 members, so the first batch's 16 retire and
	// the settled batches hold 16 members too many: the first batch
	// retires. The 16 hits then retire the second batch's members.
	if before.JobsRetired != 16 || after.JobsRetired != 32 || after.JobsRetained != retainedRecords {
		t.Errorf("jobs_retired %d then %d, jobs_retained %d; want 16, 32, %d",
			before.JobsRetired, after.JobsRetired, after.JobsRetained, retainedRecords)
	}
	if after.BatchesRetired != 1 || after.BatchesRetained != batches-1 {
		t.Errorf("batches_retired %d, batches_retained %d; want 1, %d", after.BatchesRetired, after.BatchesRetained, batches-1)
	}

	wantEverywhere(t, s, "/v1/batches/batch-000001", batchRoutes, http.StatusGone)
	for _, id := range []string{"batch-999999", "batch-1", "batch-0000001", "batch-000000", "job-000001"} {
		wantEverywhere(t, s, "/v1/batches/"+id, batchRoutes, http.StatusNotFound)
	}
	for _, id := range []string{"job-999999", "job-1", "job-000000", "batch-000001"} {
		wantEverywhere(t, s, "/v1/jobs/"+id, jobRoutes, http.StatusNotFound)
	}
	for _, p := range second.Points {
		wantEverywhere(t, s, "/v1/jobs/"+p.ID, jobRoutes, http.StatusGone)
		var entry CacheEntry
		serveJSON(t, s, http.MethodGet, "/v1/cache/"+p.CacheKey, "", http.StatusOK, &entry)
	}

	var st BatchStatus
	serveJSON(t, s, http.MethodGet, "/v1/batches/"+second.ID, "", http.StatusOK, &st)
	if st.State != "done" || len(st.Points) != 16 {
		t.Fatalf("retained batch: state %s, %d points; want done, 16", st.State, len(st.Points))
	}
	for i, p := range st.Points {
		if p.ID != second.Points[i].ID || p.State != string(StateDone) {
			t.Errorf("retained batch point %d: %s %s, want %s done", i, p.ID, p.State, second.Points[i].ID)
		}
	}
	var res BatchResults
	serveJSON(t, s, http.MethodGet, "/v1/batches/"+second.ID+"/results", "", http.StatusOK, &res)
	if !res.Complete || len(res.Points) != 16 {
		t.Fatalf("retained batch results: complete %v, %d points", res.Complete, len(res.Points))
	}
	for i, p := range res.Points {
		if p.Result == nil || p.Result.ThroughputBitsPerCycle != float64(i+1) {
			t.Errorf("retained batch result %d: %+v, want throughput %d", i, p.Result, i+1)
		}
	}
}

// TestRetentionSparesLiveWork files more than retainedRecords cache hits
// past a running job, a queued job and a batch that is still live, one
// of whose two members is already a settled cache hit. Exactly the
// surplus of hits retires: none of the live records was filed. A
// queued job filed on cancellation then retires one more hit and stays
// itself.
func TestRetentionSparesLiveWork(t *testing.T) {
	s := newBareServer(t, Options{Workers: 1, QueueDepth: 4})
	spec := resolveSpec(t, s, quickJob)
	s.cache.Put(spec.Key(), testResult(1))

	var running, queued JobStatus
	serveJSON(t, s, http.MethodPost, "/v1/jobs", longJob, http.StatusAccepted, &running)
	job, _ := s.reg.get(running.ID)
	for deadline := time.Now().Add(10 * time.Second); job.Status().State != string(StateRunning); {
		if time.Now().After(deadline) {
			t.Fatalf("long job never started: %+v", job.Status())
		}
		time.Sleep(5 * time.Millisecond)
	}
	serveJSON(t, s, http.MethodPost, "/v1/jobs",
		`{"workload":{"cpu":"fmm","gpu":"DCT"},"seed":5,"warmup_cycles":200,"measure_cycles":2000}`,
		http.StatusAccepted, &queued)
	var batch BatchStatus
	serveJSON(t, s, http.MethodPost, "/v1/batches",
		`{"warmup_cycles":200,"measure_cycles":2000,"workloads":[{"cpu":"fmm","gpu":"DCT"},{"cpu":"x264","gpu":"DCT"}]}`,
		http.StatusAccepted, &batch)
	if batch.Cached != 1 || batch.Points[0].State != string(StateDone) {
		t.Fatalf("batch: %d cached, first point %s; want its first point a settled hit", batch.Cached, batch.Points[0].State)
	}

	const surplus = 10
	settleHits(t, s, spec, retainedRecords+surplus)
	if m := metricsOf(t, s); m.JobsRetired != surplus || m.BatchesRetired != 0 {
		t.Fatalf("jobs_retired %d, batches_retired %d; want %d, 0", m.JobsRetired, m.BatchesRetired, surplus)
	}
	for _, id := range []string{running.ID, queued.ID, batch.Points[0].ID, batch.Points[1].ID} {
		if code, body := serve(s, http.MethodGet, "/v1/jobs/"+id, ""); code != http.StatusOK {
			t.Errorf("live job %s: HTTP %d: %s", id, code, body)
		}
	}
	if code, body := serve(s, http.MethodGet, "/v1/batches/"+batch.ID, ""); code != http.StatusOK {
		t.Errorf("live batch: HTTP %d: %s", code, body)
	}

	if code, body := serve(s, http.MethodDelete, "/v1/jobs/"+queued.ID, ""); code != http.StatusAccepted {
		t.Fatalf("cancelling the queued job: HTTP %d: %s", code, body)
	}
	if m := metricsOf(t, s); m.JobsRetired != surplus+1 {
		t.Errorf("jobs_retired %d after the queued job settled, want %d", m.JobsRetired, surplus+1)
	}
	var st JobStatus
	serveJSON(t, s, http.MethodGet, "/v1/jobs/"+queued.ID, "", http.StatusOK, &st)
	if st.State != string(StateCancelled) {
		t.Errorf("cancelled job reads %s", st.State)
	}
}

// TestRetirementRacesReaders retires cache hits while other goroutines
// read and cancel the same ids on every job route. Each request answers
// as it would for the retained record, or 410 — never 404 — and the
// bound holds afterwards. Meant for -race.
func TestRetirementRacesReaders(t *testing.T) {
	s := newBareServer(t, Options{Workers: 1})
	spec := resolveSpec(t, s, quickJob)
	s.cache.Put(spec.Key(), testResult(1))
	live := map[route]int{
		{http.MethodGet, ""}:        http.StatusOK,
		{http.MethodGet, "/result"}: http.StatusOK,
		{http.MethodGet, "/events"}: http.StatusOK,
		{http.MethodDelete, ""}:     http.StatusConflict, // a hit is born terminal
	}

	const n, every = retainedRecords + 1024, 4
	ids := make(chan string, n/every) // one slot per sampled id: the producer never waits
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for id := range ids {
				for _, rt := range jobRoutes {
					code, body := serve(s, rt.method, "/v1/jobs/"+id+rt.suffix, "")
					if code != live[rt] && code != http.StatusGone {
						t.Errorf("%s %s%s: HTTP %d, want %d or 410: %s", rt.method, id, rt.suffix, code, live[rt], body)
					}
				}
			}
		}()
	}
	anon := s.tenants.Anonymous()
	for i := 0; i < n; i++ {
		anon.AcquireSlots(1)
		job := s.buildJob(&spec, anon)
		s.admit(job, spec, anon, nil)
		if i%every == 0 {
			ids <- job.ID
		}
	}
	close(ids)
	wg.Wait()
	if held, retired := s.reg.retention(); held != retainedRecords || retired != n-retainedRecords {
		t.Fatalf("registry holds %d and retired %d, want %d and %d", held, retired, retainedRecords, n-retainedRecords)
	}
}
