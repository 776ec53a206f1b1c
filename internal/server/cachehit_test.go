package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/traffic"
)

// A job that hits the result cache at submission is a compact terminal
// record: no spec, context, event ring or subscriber. These tests pin
// that it costs little, answers every endpoint exactly as a job settled
// through the full path would, keeps the counters and the tenant quota
// exact, and is safe under concurrent use.

// sixteenPairBatch expands to the paper's 16 test pairs at quick scale.
func sixteenPairBatch() string {
	var b strings.Builder
	b.WriteString(`{"preset":"static-32","warmup_cycles":200,"measure_cycles":1000,"workloads":[`)
	for i, p := range traffic.TestPairs() {
		if i > 0 {
			b.WriteString(",")
		}
		fmt.Fprintf(&b, `{"cpu":%q,"gpu":%q}`, p.CPU.Name, p.GPU.Name)
	}
	b.WriteString(`]}`)
	return b.String()
}

// sixteenPairResults maps the cache key of every point of
// sixteenPairBatch to a distinct stand-in result.
func sixteenPairResults(tb testing.TB, s *Server) map[string]*JobResult {
	tb.Helper()
	var req BatchRequest
	if err := json.Unmarshal([]byte(sixteenPairBatch()), &req); err != nil {
		tb.Fatal(err)
	}
	specs, _, err := req.expand(s.opts.DefaultTimeout, s.models)
	if err != nil {
		tb.Fatal(err)
	}
	results := make(map[string]*JobResult, len(specs))
	for i, spec := range specs {
		results[spec.Key()] = testResult(float64(i + 1))
	}
	return results
}

// submitCachedBatch posts sixteenPairBatch through Server.ServeHTTP and
// fails unless every point is answered from the cache.
func submitCachedBatch(tb testing.TB, s *Server) {
	if code, body := serve(s, http.MethodPost, "/v1/batches", sixteenPairBatch()); code != http.StatusOK {
		tb.Fatalf("POST /v1/batches: HTTP %d, want a 200 fully cached batch: %.300s", code, body)
	}
}

// TestCacheHitBatchRetention is TestCacheHitJobRetention for batches: a
// fully cached figure sweep resubmitted over and over keeps one Batch
// (its status and member list, no feed: the batch is born terminal and
// its frames are rendered on request) and 16 hit records per request.
// About 440–490 B per member is measured. It was 1.6 KB while the batch
// kept a ring of 16 progress frames plus the end frame, each carrying
// the whole series table, and 3.0 KB when every hit member also kept a
// context, ring and spec copy. The bar is 640 B.
func TestCacheHitBatchRetention(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 32})
	body := sixteenPairBatch()
	code, first := postBatch(t, ts, body)
	if code != http.StatusAccepted || first.Total != 16 {
		t.Fatalf("first batch: HTTP %d, %d points", code, first.Total)
	}
	pollBatch(t, ts, first.ID, func(st BatchStatus) bool { return st.State == "done" }, 60*time.Second)
	hit := func() {
		t.Helper()
		if code, st := postBatch(t, ts, body); code != http.StatusOK || st.Cached != 16 {
			t.Fatalf("resubmission not fully cached: HTTP %d, %d cached", code, st.Cached)
		}
	}
	for i := 0; i < 20; i++ {
		hit()
	}
	const batches = 100
	before := liveHeap()
	for i := 0; i < batches; i++ {
		hit()
	}
	perMember := (liveHeap() - before) / (batches * 16)
	t.Logf("each cached batch member retains %d B", perMember)
	if perMember > 640 {
		t.Fatalf("each cached batch member retains %d B of live heap, want at most 640", perMember)
	}
}

// volatile matches what legitimately differs between two jobs for the
// same key: job ids, timestamps and the elapsed time derived from them.
var volatile = regexp.MustCompile(`job-\d+|\d{4}-\d\d-\d\dT[0-9:.]+Z|,\s*"elapsed_ms":\s*\d+`)

// getRaw fetches a body verbatim.
func getRaw(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: HTTP %d: %s", url, resp.StatusCode, data)
	}
	return data
}

// TestCacheHitMatchesFullPath: a hit served as a compact record answers
// status, result and event feed byte for byte like a job that took the
// full path — armed with context, ring and subscribers, then settled
// from the cache by admit's under-lock recheck — apart from ids and
// timestamps.
func TestCacheHitMatchesFullPath(t *testing.T) {
	// The reference result comes from a real run on another daemon.
	src, srcTS := newTestServer(t, Options{Workers: 1})
	_, run := postJob(t, srcTS, quickJob)
	pollUntil(t, srcTS, run.ID, func(s JobStatus) bool { return s.State == string(StateDone) }, 30*time.Second)
	ref, ok := src.cache.Get(run.CacheKey)
	if !ok {
		t.Fatal("reference result not cached")
	}

	s, ts := newTestServer(t, Options{Workers: 1})
	// The first lookup misses; the result appears before the recheck.
	s.testHookAfterCacheMiss = func(j *Job) { s.cache.Put(j.key, ref.result) }
	code, full := postJob(t, ts, quickJob)
	if code != http.StatusOK || !full.Cached {
		t.Fatalf("recheck-path submit: HTTP %d, %+v", code, full)
	}
	code, hit := postJob(t, ts, quickJob)
	if code != http.StatusOK || !hit.Cached {
		t.Fatalf("hit submit: HTTP %d, %+v", code, hit)
	}
	fullJob, _ := s.reg.get(full.ID)
	hitJob, _ := s.reg.get(hit.ID)
	if fullJob.exec == nil || hitJob.exec != nil {
		t.Fatalf("execution state: full path %v, hit %v; want armed and bare", fullJob.exec != nil, hitJob.exec != nil)
	}
	for _, path := range []string{"", "/result", "/events"} {
		a := getRaw(t, ts.URL+"/v1/jobs/"+full.ID+path)
		b := getRaw(t, ts.URL+"/v1/jobs/"+hit.ID+path)
		if na, nb := volatile.ReplaceAll(a, nil), volatile.ReplaceAll(b, nil); !bytes.Equal(na, nb) {
			t.Errorf("GET /v1/jobs/{id}%s differs:\nfull path: %s\nhit:       %s", path, a, b)
		}
	}
}

// TestCacheHitCounters: N hits move jobs_submitted, cache_hits and
// events_emitted by exactly N — the end frame a hit's feed consists of
// is counted once, at submission, and never again when the feed is
// read — and leave no quota slot held.
func TestCacheHitCounters(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	_, first := postJob(t, ts, quickJob)
	pollUntil(t, ts, first.ID, func(s JobStatus) bool { return s.State == string(StateDone) }, 30*time.Second)
	before := snapshotMetrics(t, ts)
	const n = 25
	for i := 0; i < n; i++ {
		code, st := postJob(t, ts, quickJob)
		if code != http.StatusOK || !st.Cached {
			t.Fatalf("hit %d: HTTP %d, %+v", i, code, st)
		}
		getRaw(t, ts.URL+"/v1/jobs/"+st.ID+"/events")
	}
	after := snapshotMetrics(t, ts)
	for _, c := range []struct {
		name          string
		before, after uint64
	}{
		{"jobs_submitted", before.JobsSubmitted, after.JobsSubmitted},
		{"cache_hits", before.CacheHits, after.CacheHits},
		{"events_emitted", before.EventsEmitted, after.EventsEmitted},
		{"tenant jobs_submitted", before.Tenants["anonymous"].JobsSubmitted, after.Tenants["anonymous"].JobsSubmitted},
		{"tenant cache_hits", before.Tenants["anonymous"].CacheHits, after.Tenants["anonymous"].CacheHits},
		{"tenant events_emitted", before.Tenants["anonymous"].EventsEmitted, after.Tenants["anonymous"].EventsEmitted},
	} {
		if d := c.after - c.before; d != n {
			t.Errorf("%s moved by %d over %d hits, want %d", c.name, d, n, n)
		}
	}
	if after.JobsStarted != before.JobsStarted || after.CacheMisses != before.CacheMisses {
		t.Errorf("hits started %d jobs and missed %d times, want 0/0",
			after.JobsStarted-before.JobsStarted, after.CacheMisses-before.CacheMisses)
	}
	if got := after.Tenants["anonymous"].InFlight; got != 0 {
		t.Errorf("tenant in-flight %d after hits, want 0", got)
	}
}

// cachedBatchPair submits sixteenPairBatch twice to a fresh daemon. The
// first time every point misses, is armed, and is then settled from the
// cache by admit's under-lock recheck: the batch keeps a live ring fed
// by progress subscribers. The second time every point is a cache hit
// and the batch is born terminal. It returns both batch ids and what
// each submission moved events_emitted and events_dropped by, in total
// and for the tenant.
func cachedBatchPair(t *testing.T, opts Options) (s *Server, ts *httptest.Server, live, born string, liveMoved, bornMoved [4]uint64) {
	t.Helper()
	s, ts = newTestServer(t, opts)
	results := sixteenPairResults(t, s)
	s.testHookAfterCacheMiss = func(j *Job) { s.cache.Put(j.key, results[j.key]) }
	submit := func() (string, [4]uint64) {
		t.Helper()
		before := snapshotMetrics(t, ts)
		code, st := postBatch(t, ts, sixteenPairBatch())
		if code != http.StatusOK || st.Cached != len(results) {
			t.Fatalf("batch submit: HTTP %d, %d of %d cached", code, st.Cached, len(results))
		}
		after := snapshotMetrics(t, ts)
		tb, ta := before.Tenants["anonymous"], after.Tenants["anonymous"]
		return st.ID, [4]uint64{
			after.EventsEmitted - before.EventsEmitted, after.EventsDropped - before.EventsDropped,
			ta.EventsEmitted - tb.EventsEmitted, ta.EventsDropped - tb.EventsDropped,
		}
	}
	live, liveMoved = submit()
	born, bornMoved = submit()
	lb, _ := s.batches.get(live)
	bb, _ := s.batches.get(born)
	if lb.events == nil || bb.events != nil {
		t.Fatalf("batch rings: live path %v, fully cached %v; want a ring and none", lb.events != nil, bb.events != nil)
	}
	return s, ts, live, born, liveMoved, bornMoved
}

// batchIDs matches batch ids, which differ between two submissions of
// the same batch.
var batchIDs = regexp.MustCompile(`batch-\d+`)

// feedBytes reads a finished feed verbatim, resuming after lastID when
// it is non-zero, with ids and timestamps blanked.
func feedBytes(t *testing.T, url string, lastID uint64) []byte {
	t.Helper()
	resp := openStream(t, url, "", lastID)
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: HTTP %d: %s", url, resp.StatusCode, data)
	}
	return batchIDs.ReplaceAll(volatile.ReplaceAll(data, nil), nil)
}

// TestCachedBatchFeedMatchesLivePath: the feed a born-terminal batch
// renders on request is, apart from ids and timestamps, the one the
// same batch's live ring holds when its members take the armed path —
// with the default ring, with a ring too small for its 17 frames, and
// resumed with Last-Event-ID. Both submissions move events_emitted and
// events_dropped alike.
func TestCachedBatchFeedMatchesLivePath(t *testing.T) {
	for _, c := range []struct {
		name     string
		capacity int
		frames   int
	}{
		{"default ring", 0, 17},
		{"ring of 5", 5, 5},
	} {
		t.Run(c.name, func(t *testing.T) {
			_, ts, live, born, liveMoved, bornMoved := cachedBatchPair(t, Options{Workers: 1, StreamRingCapacity: c.capacity})
			if liveMoved != bornMoved {
				t.Errorf("events_emitted, events_dropped (total, tenant) moved by %v on the live path, %v born terminal", liveMoved, bornMoved)
			}
			for _, last := range []uint64{0, 14} {
				a := feedBytes(t, ts.URL+"/v1/batches/"+live+"/events", last)
				b := feedBytes(t, ts.URL+"/v1/batches/"+born+"/events", last)
				if !bytes.Equal(a, b) {
					t.Errorf("feed after id %d differs:\nlive path:     %s\nborn terminal: %s", last, a, b)
				}
				want := c.frames
				if last > 0 {
					want = 17 - int(last)
				}
				if got := bytes.Count(b, []byte("\nevent: ")); got != want {
					t.Errorf("feed after id %d has %d frames, want %d:\n%s", last, got, want, b)
				}
			}
		})
	}
}

// TestCachedBatchCountersAndLifecycle: a born-terminal 16-point batch
// moves events_emitted by 33 at submission — its 16 progress frames
// and end frame, and the end frame of each member's own feed — and by
// nothing when its feed is read. It answers DELETE with 409, and 410
// once retired.
func TestCachedBatchCountersAndLifecycle(t *testing.T) {
	s, ts, _, born, _, moved := cachedBatchPair(t, Options{Workers: 1})
	if want := [4]uint64{33, 0, 33, 0}; moved != want {
		t.Errorf("events_emitted, events_dropped (total, tenant) moved by %v, want %v", moved, want)
	}
	before := snapshotMetrics(t, ts)
	getRaw(t, ts.URL+"/v1/batches/"+born+"/events")
	getRaw(t, ts.URL+"/v1/batches/"+born+"/results")
	if after := snapshotMetrics(t, ts); after.EventsEmitted != before.EventsEmitted ||
		after.Tenants["anonymous"].EventsEmitted != before.Tenants["anonymous"].EventsEmitted {
		t.Errorf("reading the feed moved events_emitted by %d", after.EventsEmitted-before.EventsEmitted)
	}
	var st BatchStatus
	serveJSON(t, s, http.MethodDelete, "/v1/batches/"+born, "", http.StatusConflict, &st)
	if st.State != "done" || st.Done != 16 || st.Cached != 16 {
		t.Fatalf("DELETE answered %+v, want the done batch", st)
	}
	for i := 0; i <= retainedRecords/16; i++ {
		submitCachedBatch(t, s)
	}
	for _, path := range []string{"", "/events", "/results"} {
		if code, body := serve(s, http.MethodGet, "/v1/batches/"+born+path, ""); code != http.StatusGone {
			t.Errorf("GET retired batch%s: HTTP %d, want 410: %s", path, code, body)
		}
	}
}

// TestCachedBatchFeedReadersDuringSubmit opens the feed of each fully
// cached batch from several goroutines while it is being submitted.
// A reader that arrives mid-submission creates the batch's ring, so
// the batch takes the live path; one that arrives later gets the
// rendered feed. Either way every reader gets the 16 progress frames
// and the end frame, and none hangs. Meant for -race.
func TestCachedBatchFeedReadersDuringSubmit(t *testing.T) {
	s := newBareServer(t, Options{Workers: 1})
	for key, res := range sixteenPairResults(t, s) {
		s.cache.Put(key, res)
	}
	for round := 0; round < 20; round++ {
		path := "/v1/batches/" + formatID(batchIDPrefix, s.batches.ids.Load()+1) + "/events"
		var wg sync.WaitGroup
		for r := 0; r < 4; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				// 404 before the id is drawn, 410 between drawing it and
				// registering the batch; nothing is retired here.
				code, body := serve(s, http.MethodGet, path, "")
				for code == http.StatusNotFound || code == http.StatusGone {
					code, body = serve(s, http.MethodGet, path, "")
				}
				var kinds []string
				if err := DecodeSSE(bytes.NewReader(body), func(fr SSEFrame) error {
					kinds = append(kinds, fr.Event)
					return nil
				}); err != nil || code != http.StatusOK {
					t.Errorf("GET %s: HTTP %d, %v", path, code, err)
					return
				}
				want := strings.Repeat(eventKindProgress+" ", 16) + eventKindEnd
				if got := strings.Join(kinds, " "); got != want {
					t.Errorf("GET %s: frames %s, want %s", path, got, want)
				}
			}()
		}
		submitCachedBatch(t, s)
		wg.Wait()
	}
}

// TestCacheHitConcurrent runs hits from several clients against DELETE,
// /events and /result on the hit ids, beside a tenant at its
// max_in_flight whose would-be hits must still be refused with 429 and
// Retry-After. Meant for -race; TestMain's leak check covers the
// streams.
func TestCacheHitConcurrent(t *testing.T) {
	tenants := writeTenantsFile(t, `{"tenants":[
	 {"name":"free","token":"tok-free"},
	 {"name":"capped","token":"tok-capped","max_in_flight":1}]}`)
	_, ts := newTestServer(t, Options{Workers: 1, TenantsFile: tenants})

	resp, body := authedDo(t, http.MethodPost, ts.URL+"/v1/jobs", "tok-free", quickJob)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("warming submit: HTTP %d: %s", resp.StatusCode, body)
	}
	warm := decodeStatus(t, body)
	authedPollJob(t, ts.URL, "tok-free", warm.ID, func(s JobStatus) bool { return s.State == string(StateDone) }, 30*time.Second)
	// The capped tenant's one slot is held by a long run.
	resp, body = authedDo(t, http.MethodPost, ts.URL+"/v1/jobs", "tok-capped", longJob)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("long submit: HTTP %d: %s", resp.StatusCode, body)
	}
	long := decodeStatus(t, body)

	const clients, rounds = 4, 15
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				code, retry, _ := tryDo(t, http.MethodPost, ts.URL+"/v1/jobs", "tok-capped", quickJob)
				if code != http.StatusTooManyRequests || retry == "" {
					t.Errorf("capped tenant hit: HTTP %d (Retry-After %q), want 429 with Retry-After", code, retry)
				}
				code, _, body := tryDo(t, http.MethodPost, ts.URL+"/v1/jobs", "tok-free", quickJob)
				var st JobStatus
				if code != http.StatusOK || json.Unmarshal(body, &st) != nil {
					t.Errorf("free tenant hit: HTTP %d: %s", code, body)
					return
				}
				var inner sync.WaitGroup
				for _, req := range []struct{ method, path string }{
					{http.MethodDelete, ""}, {http.MethodGet, "/events"}, {http.MethodGet, "/result"},
				} {
					inner.Add(1)
					go func() {
						defer inner.Done()
						code, _, body := tryDo(t, req.method, ts.URL+"/v1/jobs/"+st.ID+req.path, "tok-free", "")
						want := http.StatusOK
						if req.method == http.MethodDelete {
							want = http.StatusConflict // terminal at birth: nothing to cancel
						}
						if code != want {
							t.Errorf("%s %s%s: HTTP %d, want %d: %s", req.method, st.ID, req.path, code, want, body)
						}
						if req.path == "/events" && !bytes.Contains(body, []byte("event: end")) {
							t.Errorf("hit feed without its end frame: %s", body)
						}
					}()
				}
				inner.Wait()
			}
		}()
	}
	wg.Wait()

	if resp, _ := authedDo(t, http.MethodDelete, ts.URL+"/v1/jobs/"+long.ID, "tok-capped", ""); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancelling the long run: HTTP %d", resp.StatusCode)
	}
	authedPollJob(t, ts.URL, "tok-capped", long.ID, func(s JobStatus) bool { return JobState(s.State).Terminal() }, 10*time.Second)
	m := snapshotMetrics(t, ts)
	if n := m.Tenants["free"].InFlight; n != 0 {
		t.Errorf("free tenant holds %d slots after its hits, want 0", n)
	}
	if n := m.Tenants["capped"].InFlight; n != 0 {
		t.Errorf("capped tenant holds %d slots after its run ended, want 0", n)
	}
	if want := uint64(clients * rounds); m.Tenants["capped"].JobsThrottled != want {
		t.Errorf("capped tenant throttled %d times, want %d", m.Tenants["capped"].JobsThrottled, want)
	}
}

// decodeStatus decodes a job status body.
func decodeStatus(t *testing.T, body []byte) JobStatus {
	t.Helper()
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("decoding status %s: %v", body, err)
	}
	return st
}

// tryDo is authedDo for goroutines other than the test's own: it
// reports a failed request with t.Error and returns status 0. It
// returns the status, the Retry-After header and the body.
func tryDo(t *testing.T, method, url, token, body string) (int, string, []byte) {
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Error(err)
		return 0, "", nil
	}
	req.Header.Set("Authorization", "Bearer "+token)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Error(err)
		return 0, "", nil
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Error(err)
	}
	return resp.StatusCode, resp.Header.Get("Retry-After"), data
}
