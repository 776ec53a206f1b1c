package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/stats"
)

// dynJob is a photonic run driven by a registered controller, so it
// lands in the per-controller ledger with state residency.
const dynJob = `{"preset":"dyn-rw500","workload":{"cpu":"fmm","gpu":"DCT"},"warmup_cycles":200,"measure_cycles":2000}`

// sortedKeys lists a decoded JSON object's keys in order.
func sortedKeys(t *testing.T, obj any, where string) []string {
	t.Helper()
	m, ok := obj.(map[string]any)
	if !ok {
		t.Fatalf("%s is %T, want a JSON object", where, obj)
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TestMetricsWireShape pins the key sets of GET /metrics — top level,
// one tenant and one controller — after a mixed workload that moves
// every family of counters: a miss, a hit and a coalesced follower, a
// cancel and a 429, a batch and an open SSE stream, and a controller-
// driven pearl run. Adding or renaming a metric must update this list.
func TestMetricsWireShape(t *testing.T) {
	tenants := writeTenantsFile(t, `{"tenants":[
 {"name":"alice","token":"tok-alice"},
 {"name":"slow","token":"tok-slow","rate_per_sec":0.001,"burst":1}
]}`)
	_, ts := newTestServer(t, Options{Workers: 1, TenantsFile: tenants})
	post := func(path, token, body string, want int) JobStatus {
		t.Helper()
		resp, data := authedDo(t, http.MethodPost, ts.URL+path, token, body)
		if resp.StatusCode != want {
			t.Fatalf("POST %s: HTTP %d, want %d: %.300s", path, resp.StatusCode, want, data)
		}
		var st JobStatus
		_ = json.Unmarshal(data, &st)
		return st
	}

	// A miss run to completion by a controller, then its cache hit.
	miss := post("/v1/jobs", "tok-alice", dynJob, http.StatusAccepted)
	authedPollJob(t, ts.URL, "tok-alice", miss.ID, func(st JobStatus) bool { return st.State == string(StateDone) }, 30e9)
	post("/v1/jobs", "tok-alice", dynJob, http.StatusOK)

	// Pin the only worker and follow it over SSE; queue a leader, its
	// coalesced follower and a batch behind it, then cancel the leader.
	pinned := post("/v1/jobs", "tok-alice", longJob, http.StatusAccepted)
	authedPollJob(t, ts.URL, "tok-alice", pinned.ID, func(st JobStatus) bool { return st.State == string(StateRunning) }, 30e9)
	stream := openStream(t, ts.URL+"/v1/jobs/"+pinned.ID+"/events", "tok-alice", 0)
	defer stream.Body.Close()
	leader := post("/v1/jobs", "tok-alice", seed11Job, http.StatusAccepted)
	post("/v1/jobs", "tok-alice", seed11Job, http.StatusAccepted)
	post("/v1/batches", "tok-alice", twoPointBatch, http.StatusAccepted)
	if resp, data := authedDo(t, http.MethodDelete, ts.URL+"/v1/jobs/"+leader.ID, "tok-alice", ""); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("DELETE %s: HTTP %d: %s", leader.ID, resp.StatusCode, data)
	}

	// A 429: the slow tenant's bucket holds one token.
	post("/v1/jobs", "tok-slow", seed12Job, http.StatusAccepted)
	post("/v1/jobs", "tok-slow", seed12Job, http.StatusTooManyRequests)

	var doc map[string]any
	if code := getJSON(t, ts.URL+"/metrics", &doc); code != http.StatusOK {
		t.Fatalf("GET /metrics: HTTP %d", code)
	}
	if n := doc["streams_open"].(float64); n != 1 {
		t.Fatalf("streams_open = %v with one stream held open", n)
	}
	for _, c := range []struct {
		where string
		obj   any
		want  []string
	}{
		{"top level", doc, []string{
			"batches_retained", "batches_retired", "batches_submitted",
			"cache_disk_bytes", "cache_disk_entries", "cache_disk_errors", "cache_disk_hits",
			"cache_disk_touch_failures", "cache_entries", "cache_entries_exported",
			"cache_hit_rate", "cache_hits", "cache_misses",
			"controllers", "events_dropped", "events_emitted",
			"job_latency_mean_s", "job_latency_p50_s", "job_latency_p99_s",
			"jobs_cancelled", "jobs_coalesced", "jobs_completed", "jobs_failed", "jobs_rejected",
			"jobs_retained", "jobs_retired", "jobs_started", "jobs_submitted", "jobs_throttled",
			"model_uploads", "models_hosted", "queue_capacity", "queue_depth",
			"streams_open",
			"tenants", "tenants_configured", "uptime_seconds",
			"worker_utilization", "workers", "workers_busy",
		}},
		{"tenants.alice", doc["tenants"].(map[string]any)["alice"], []string{
			"cache_hits", "cache_misses", "controllers", "cycles_simulated",
			"events_dropped", "events_emitted", "in_flight",
			"jobs_cancelled", "jobs_coalesced", "jobs_completed", "jobs_failed",
			"jobs_rejected", "jobs_submitted", "jobs_throttled", "queue_depth", "streams_open",
		}},
		{"tenants.slow", doc["tenants"].(map[string]any)["slow"], []string{
			"cache_hits", "cache_misses", "cycles_simulated",
			"events_dropped", "events_emitted", "in_flight",
			"jobs_cancelled", "jobs_coalesced", "jobs_completed", "jobs_failed",
			"jobs_rejected", "jobs_submitted", "jobs_throttled", "queue_depth", "streams_open",
		}},
		{"controllers.reactive", doc["controllers"].(map[string]any)["reactive"], []string{
			"runs", "state_residency_cycles",
		}},
	} {
		if got := sortedKeys(t, c.obj, c.where); !slices.Equal(got, c.want) {
			t.Errorf("%s keys:\n got %q\nwant %q", c.where, got, c.want)
		}
	}
	if got := sortedKeys(t, doc["tenants"], "tenants"); !slices.Equal(got, []string{"alice", "slow"}) {
		t.Errorf("tenants %q, want alice and slow", got)
	}
	if got := sortedKeys(t, doc["controllers"], "controllers"); !slices.Equal(got, []string{"reactive"}) {
		t.Errorf("controllers %q, want reactive only", got)
	}
}

// TestMetricsSnapshotIsDeepCopy: a snapshot handed to the encoder owns
// its tenant, controller and residency maps. Jobs keep settling into the
// same ledgers while it is encoded over and over; the bytes never
// change, and under -race no access is shared with the live counters.
func TestMetricsSnapshotIsDeepCopy(t *testing.T) {
	s := newBareServer(t, Options{Workers: 2})
	awaitJobs(t, s, terminal, submit(t, s, "/v1/jobs", "", dynJob, http.StatusAccepted))
	snap := s.metrics.snapshot()
	want, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Controllers["reactive"].StateResidencyCycles == nil {
		t.Fatalf("no residency ledger to share: %s", want)
	}

	// Four more runs settle on the workers while this goroutine encodes.
	const more = 4
	var ids []string
	for seed := 1; seed <= more; seed++ {
		body := fmt.Sprintf(`{"preset":"dyn-rw500","workload":{"cpu":"fmm","gpu":"DCT"},"seed":%d,"warmup_cycles":200,"measure_cycles":2000}`, seed)
		ids = append(ids, submit(t, s, "/v1/jobs", "", body, http.StatusAccepted))
	}
	for settling := true; settling; {
		settling = false
		for _, id := range ids {
			settling = settling || !JobState(statusOf(t, s, id).State).Terminal()
		}
		got, err := json.Marshal(snap)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("snapshot changed while jobs settled:\n got %s\nwant %s", got, want)
		}
	}

	live := s.metrics.snapshot()
	if got := live.Controllers["reactive"].Runs; got != 1+more {
		t.Fatalf("live ledger runs = %d, want %d", got, 1+more)
	}
	if reflect.DeepEqual(live.Controllers, snap.Controllers) {
		t.Fatal("live controller ledger did not move: the test settled nothing")
	}
}

// TestMetricsLatencyQuantiles: the job-latency mean, p50 and p99 a
// snapshot reports, computed after the ledger lock is released, equal
// stats.Histogram's answers over the same samples, ring wrap included.
func TestMetricsLatencyQuantiles(t *testing.T) {
	m := newMetrics(1)
	ref := stats.NewHistogram(1 << 16)
	for i := 0; i < 1<<16+5000; i++ {
		x := float64(i*7919%10007) / 1000 // scrambled seconds
		m.latency.Add(x)
		ref.Add(x)
	}
	snap := m.snapshot()
	q := ref.Percentiles(50, 99)
	got := []float64{snap.JobLatencyMeanS, snap.JobLatencyP50S, snap.JobLatencyP99S}
	if want := []float64{ref.Mean(), q[0], q[1]}; !slices.Equal(got, want) {
		t.Fatalf("mean, p50, p99 = %v, reference %v", got, want)
	}
}
