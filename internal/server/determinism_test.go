package server

import (
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"
)

// resultBytes submits body, waits for completion and returns the raw
// result payload — the exact bytes a client would persist.
func resultBytes(t *testing.T, ts *httptest.Server, body string) ([]byte, JobStatus) {
	t.Helper()
	code, st := postJob(t, ts, body)
	if code != http.StatusOK && code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	done := pollUntil(t, ts, st.ID, func(s JobStatus) bool { return JobState(s.State).Terminal() }, 60*time.Second)
	if done.State != string(StateDone) {
		t.Fatalf("job finished %s (error %q)", done.State, done.Error)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result fetch: HTTP %d", resp.StatusCode)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return raw, done
}

// goldenJob pins every knob that feeds the content hash.
const goldenJob = `{"preset":"static-32","workload":{"cpu":"fmm","gpu":"DCT"},"seed":2018,"warmup_cycles":200,"measure_cycles":4000}`

// TestDeterminismGoldenResult drives the same (preset, pair, seed)
// through the full server path on two independent daemons and demands
// byte-identical canonical results and equal content hashes — the
// property both cache layers and the cache-directory format rest on.
func TestDeterminismGoldenResult(t *testing.T) {
	_, ts1 := newTestServer(t, Options{Workers: 2})
	_, ts2 := newTestServer(t, Options{Workers: 2})

	raw1, st1 := resultBytes(t, ts1, goldenJob)
	raw2, st2 := resultBytes(t, ts2, goldenJob)

	if st1.CacheKey != st2.CacheKey {
		t.Fatalf("content hashes diverged: %s vs %s", st1.CacheKey, st2.CacheKey)
	}
	if string(raw1) != string(raw2) {
		t.Fatalf("result bytes diverged across servers:\n%s\nvs\n%s", raw1, raw2)
	}

	// A repeat on the same server must serve the identical bytes from
	// cache.
	rawCached, stCached := resultBytes(t, ts1, goldenJob)
	if !stCached.Cached {
		t.Fatalf("resubmission was not a cache hit: %+v", stCached)
	}
	if string(rawCached) != string(raw1) {
		t.Fatalf("cached result bytes differ from the original:\n%s\nvs\n%s", rawCached, raw1)
	}
}

// TestDeterminismAcrossGOMAXPROCS re-runs the golden point under a
// serial and a parallel scheduler: results must not depend on runtime
// parallelism (per-job simulation is single-threaded by design).
func TestDeterminismAcrossGOMAXPROCS(t *testing.T) {
	if runtime.NumCPU() < 2 {
		t.Skip("needs >= 2 CPUs to vary GOMAXPROCS meaningfully")
	}
	run := func(procs, workers int) []byte {
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
		_, ts := newTestServer(t, Options{Workers: workers})
		raw, _ := resultBytes(t, ts, goldenJob)
		return raw
	}
	serial := run(1, 1)
	parallel := run(runtime.NumCPU(), 4)
	if string(serial) != string(parallel) {
		t.Fatalf("result depends on GOMAXPROCS:\nserial   %s\nparallel %s", serial, parallel)
	}
}
