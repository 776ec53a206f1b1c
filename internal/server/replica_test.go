package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"testing"
	"time"

	"repro/internal/experiments"
)

// seedsBatch is one quick (config, pair) point fanned out over 3
// derived seeds — the smallest batch that exercises the lockstep
// carrier path end to end.
const seedsBatch = `{"workloads":[{"cpu":"fmm","gpu":"DCT"}],"warmup_cycles":200,"measure_cycles":2000,"seeds":3}`

func TestBatchSeedsRunsLockstepAndCachesPerSeed(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	code, st := postBatch(t, ts, seedsBatch)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d, want 202", code)
	}
	if st.Total != 3 {
		t.Fatalf("batch total %d, want 3 (one point x 3 seeds)", st.Total)
	}
	done := pollBatch(t, ts, st.ID, func(b BatchStatus) bool { return b.State == "done" }, 60*time.Second)
	if done.Done != 3 {
		t.Fatalf("done %d/3: %+v", done.Done, done)
	}

	// Every member is its own content-addressed point: three distinct
	// cache keys, replica 0 carrying the base seed's key.
	keys := make(map[string]bool)
	for _, p := range done.Points {
		keys[p.CacheKey] = true
	}
	if len(keys) != 3 {
		t.Fatalf("distinct cache keys %d, want 3 (per-seed entries)", len(keys))
	}

	var m MetricsSnapshot
	getJSON(t, ts.URL+"/metrics", &m)
	if m.ReplicaGroupsExecuted != 1 || m.ReplicaSeedsSimulated != 3 {
		t.Fatalf("replica counters groups=%d seeds=%d, want 1/3",
			m.ReplicaGroupsExecuted, m.ReplicaSeedsSimulated)
	}
	if m.JobsCompleted != 3 || m.CacheEntries != 3 {
		t.Fatalf("completed=%d cache entries=%d, want 3/3", m.JobsCompleted, m.CacheEntries)
	}

	// The figure-shaped reduction now carries dispersion columns.
	var res BatchResults
	if code := getJSON(t, ts.URL+"/v1/batches/"+st.ID+"/results", &res); code != http.StatusOK {
		t.Fatalf("results: HTTP %d", code)
	}
	if len(res.Series) != 1 || res.Series[0].Points != 3 {
		t.Fatalf("series shape %+v, want one row over 3 points", res.Series)
	}
	row := res.Series[0]
	if row.ThroughputStdErr <= 0 || row.ThroughputCI95 != 1.96*row.ThroughputStdErr {
		t.Fatalf("throughput stderr/ci95 = %v/%v, want positive with ci95 = 1.96*stderr",
			row.ThroughputStdErr, row.ThroughputCI95)
	}
	if row.LatencyStdErr <= 0 || row.EnergyPerBitStdErr <= 0 {
		t.Fatalf("dispersion columns missing: %+v", row)
	}
}

func TestBatchSeedsResubmitFullyCached(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1})
	_, first := postBatch(t, ts, seedsBatch)
	pollBatch(t, ts, first.ID, func(b BatchStatus) bool { return b.State == "done" }, 60*time.Second)

	// Identical resubmission: every derived seed hits the cache, so the
	// batch is born done with zero new simulations.
	code, second := postBatch(t, ts, seedsBatch)
	if code != http.StatusOK {
		t.Fatalf("resubmit: HTTP %d, want 200 (fully cached)", code)
	}
	if second.Cached != 3 || second.Done != 3 {
		t.Fatalf("resubmit cached=%d done=%d, want 3/3", second.Cached, second.Done)
	}

	// A seeds:2 subset derives the same first two seeds, so it is fully
	// cached too — derived seeds are first-class, order-stable seeds.
	subset := `{"workloads":[{"cpu":"fmm","gpu":"DCT"}],"warmup_cycles":200,"measure_cycles":2000,"seeds":2}`
	code, third := postBatch(t, ts, subset)
	if code != http.StatusOK {
		t.Fatalf("subset resubmit: HTTP %d, want 200", code)
	}
	if third.Cached != 2 {
		t.Fatalf("subset cached=%d, want 2", third.Cached)
	}

	var m MetricsSnapshot
	getJSON(t, ts.URL+"/metrics", &m)
	if m.ReplicaGroupsExecuted != 1 {
		t.Fatalf("replica groups %d, want 1 (resubmits simulate nothing)", m.ReplicaGroupsExecuted)
	}
	_ = s
}

func TestBatchSeedsSupersetRunsOnlyMissingMember(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	two := `{"workloads":[{"cpu":"fmm","gpu":"DCT"}],"warmup_cycles":200,"measure_cycles":2000,"seeds":2}`
	_, first := postBatch(t, ts, two)
	pollBatch(t, ts, first.ID, func(b BatchStatus) bool { return b.State == "done" }, 60*time.Second)

	// seeds:3 over the same base: two members hit the cache, the group
	// shrinks to one live member and runs as a plain job, not a carrier.
	code, st := postBatch(t, ts, seedsBatch)
	if code != http.StatusAccepted {
		t.Fatalf("superset: HTTP %d, want 202 (one member still needs simulating)", code)
	}
	done := pollBatch(t, ts, st.ID, func(b BatchStatus) bool { return b.State == "done" }, 60*time.Second)
	if done.Cached != 2 || done.Done != 3 {
		t.Fatalf("superset cached=%d done=%d, want 2/3", done.Cached, done.Done)
	}
	var m MetricsSnapshot
	getJSON(t, ts.URL+"/metrics", &m)
	if m.ReplicaGroupsExecuted != 1 || m.ReplicaSeedsSimulated != 2 {
		t.Fatalf("replica counters groups=%d seeds=%d, want 1/2 (the straggler ran solo)",
			m.ReplicaGroupsExecuted, m.ReplicaSeedsSimulated)
	}
	if m.CacheEntries != 3 {
		t.Fatalf("cache entries %d, want 3", m.CacheEntries)
	}
}

func TestReplicatedMemberMatchesStandaloneSeed(t *testing.T) {
	// A member's derived seed is a first-class seed: submitting that
	// seed as an ordinary single job must converge on the member's
	// cache entry, byte for byte.
	s, ts := newTestServer(t, Options{Workers: 1})
	_, st := postBatch(t, ts, seedsBatch)
	pollBatch(t, ts, st.ID, func(b BatchStatus) bool { return b.State == "done" }, 60*time.Second)

	var bst BatchStatus
	getJSON(t, ts.URL+"/v1/batches/"+st.ID, &bst)
	member, ok := s.reg.get(bst.Points[1].ID)
	if !ok {
		t.Fatalf("member %s missing from registry", bst.Points[1].ID)
	}
	derived := member.exec.spec.Seed
	if want := experiments.ReplicaSeed(2018, "PEARL-Dyn(64WL)", "fmm+DCT", 1); derived != want {
		t.Fatalf("member seed %d, want ReplicaSeed derivation %d", derived, want)
	}

	body := fmt.Sprintf(`{"workload":{"cpu":"fmm","gpu":"DCT"},"warmup_cycles":200,"measure_cycles":2000,"seed":%d}`, derived)
	code, js := postJob(t, ts, body)
	if code != http.StatusOK || !js.Cached {
		t.Fatalf("standalone derived-seed submit: HTTP %d cached=%v, want 200 cache hit", code, js.Cached)
	}
	if js.CacheKey != bst.Points[1].CacheKey {
		t.Fatalf("cache keys diverge: member %s vs standalone %s", bst.Points[1].CacheKey, js.CacheKey)
	}

	// And the payload matches a from-scratch run of that seed on an
	// independent daemon (replica bit-identity through the full stack).
	var viaReplica JobResult
	getJSON(t, ts.URL+"/v1/jobs/"+js.ID+"/result", &viaReplica)
	_, ts2 := newTestServer(t, Options{Workers: 1})
	_, solo := postJob(t, ts2, body)
	pollUntil(t, ts2, solo.ID, func(s JobStatus) bool { return s.State == string(StateDone) }, 30*time.Second)
	var standalone JobResult
	getJSON(t, ts2.URL+"/v1/jobs/"+solo.ID+"/result", &standalone)
	if !resultsEqual(viaReplica, standalone) {
		t.Fatalf("replicated member result differs from standalone run:\n%+v\n%+v", viaReplica, standalone)
	}
}

func TestBatchSeedsValidation(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	cases := []struct {
		name, body string
	}{
		{"negative seeds", `{"workloads":[{"cpu":"fmm","gpu":"DCT"}],"seeds":-1}`},
		{"seeds above per-point limit", `{"workloads":[{"cpu":"fmm","gpu":"DCT"}],"seeds":33}`},
		{"seeds overflow batch limit", `{"workloads":[` +
			`{"cpu":"fmm","gpu":"DCT"},{"cpu":"fmm","gpu":"Reduction"},{"cpu":"fmm","gpu":"SRAD"},` +
			`{"cpu":"x264","gpu":"DCT"},{"cpu":"x264","gpu":"Reduction"},{"cpu":"x264","gpu":"SRAD"},` +
			`{"cpu":"fmm","gpu":"HotSpot"},{"cpu":"x264","gpu":"HotSpot"},{"cpu":"radiosity","gpu":"DCT"}` +
			`],"seeds":32}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if code, _ := postBatch(t, ts, tc.body); code != http.StatusBadRequest {
				t.Fatalf("HTTP %d, want 400", code)
			}
		})
	}
}

func TestBatchSeedsCancelledMidRunPublishesNothing(t *testing.T) {
	// Pins runJob's context.Canceled branch for a replica crew: a lockstep run
	// aborted mid-chunk must NOT publish per-seed cache entries (the
	// simulation never finished, so there is no result to address), and
	// every member must settle cancelled exactly once in the metrics —
	// finish() returning false on an already-terminal member is what
	// keeps the counters from double-attributing.
	s, ts := newTestServer(t, Options{Workers: 1})
	long := `{"workloads":[{"cpu":"fmm","gpu":"DCT"}],"warmup_cycles":200,"measure_cycles":5000000,"seeds":3}`
	code, st := postBatch(t, ts, long)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d, want 202", code)
	}
	// All three members flip running when the carrier claims the worker
	// slot; from then on the run is inside the lockstep chunk loop.
	pollBatch(t, ts, st.ID, func(b BatchStatus) bool { return b.Running == 3 }, 30*time.Second)

	// A drain with an already-expired context is the force-cancel path:
	// rootCancel fires immediately and the lockstep engine observes it
	// at the next chunk boundary — tens of milliseconds into a run that
	// would otherwise take tens of seconds.
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.Shutdown(expired); !errors.Is(err, context.Canceled) {
		t.Fatalf("forced shutdown returned %v, want context.Canceled", err)
	}

	done := pollBatch(t, ts, st.ID, func(b BatchStatus) bool { return b.State == "cancelled" }, 10*time.Second)
	if done.Cancelled != 3 {
		t.Fatalf("cancelled members %d/3: %+v", done.Cancelled, done)
	}

	var m MetricsSnapshot
	getJSON(t, ts.URL+"/metrics", &m)
	if m.CacheEntries != 0 {
		t.Fatalf("aborted run published %d per-seed cache entries, want 0", m.CacheEntries)
	}
	if m.JobsCancelled != 3 {
		t.Fatalf("cancellations counted %d, want exactly 3 (once per member)", m.JobsCancelled)
	}
	if m.JobsCompleted != 0 || m.ReplicaGroupsExecuted != 0 || m.ReplicaSeedsSimulated != 0 {
		t.Fatalf("aborted run leaked success metrics: completed=%d groups=%d seeds=%d",
			m.JobsCompleted, m.ReplicaGroupsExecuted, m.ReplicaSeedsSimulated)
	}
}

func TestBatchSeedsCancelledWhileQueuedSkipsCarrier(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 8})
	_, running := postJob(t, ts, longJob)
	pollUntil(t, ts, running.ID, func(s JobStatus) bool { return s.State == string(StateRunning) }, 10*time.Second)

	// The worker is pinned, so the seeds batch sits queued as a carrier.
	code, st := postBatch(t, ts, seedsBatch)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/batches/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	done := pollBatch(t, ts, st.ID, func(b BatchStatus) bool { return b.State == "cancelled" }, 10*time.Second)
	if done.Cancelled != 3 {
		t.Fatalf("cancelled members %d/3: %+v", done.Cancelled, done)
	}

	// Unblock the pinned worker and confirm no lockstep run ever fired.
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+running.ID, nil)
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
	}
	pollUntil(t, ts, running.ID, func(s JobStatus) bool { return JobState(s.State).Terminal() }, 5*time.Second)
	var m MetricsSnapshot
	getJSON(t, ts.URL+"/metrics", &m)
	if m.ReplicaGroupsExecuted != 0 || m.ReplicaSeedsSimulated != 0 {
		t.Fatalf("cancelled group still simulated: %+v", m)
	}
}
