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
// derived seeds: three member jobs, each run on its own.
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

	// Every member ran as a job of its own.
	var m MetricsSnapshot
	getJSON(t, ts.URL+"/metrics", &m)
	if m.JobsStarted != 3 || m.JobsCompleted != 3 || m.CacheEntries != 3 {
		t.Fatalf("started=%d completed=%d cache entries=%d, want 3/3/3", m.JobsStarted, m.JobsCompleted, m.CacheEntries)
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
	_, ts := newTestServer(t, Options{Workers: 1})
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
	if m.JobsStarted != 3 || m.JobsCompleted != 3 {
		t.Fatalf("started=%d completed=%d, want 3/3 (resubmits simulate nothing)", m.JobsStarted, m.JobsCompleted)
	}
}

func TestBatchSeedsSupersetRunsOnlyMissingMember(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	two := `{"workloads":[{"cpu":"fmm","gpu":"DCT"}],"warmup_cycles":200,"measure_cycles":2000,"seeds":2}`
	_, first := postBatch(t, ts, two)
	pollBatch(t, ts, first.ID, func(b BatchStatus) bool { return b.State == "done" }, 60*time.Second)

	// seeds:3 over the same base: two members hit the cache and only
	// the third runs.
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
	if m.JobsStarted != 3 {
		t.Fatalf("jobs started %d, want 3 (two members, then the missing one)", m.JobsStarted)
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
	// independent daemon (bit-identity through the full stack).
	var viaReplica JobResult
	getJSON(t, ts.URL+"/v1/jobs/"+js.ID+"/result", &viaReplica)
	_, ts2 := newTestServer(t, Options{Workers: 1})
	_, solo := postJob(t, ts2, body)
	pollUntil(t, ts2, solo.ID, func(s JobStatus) bool { return s.State == string(StateDone) }, 30*time.Second)
	var standalone JobResult
	getJSON(t, ts2.URL+"/v1/jobs/"+solo.ID+"/result", &standalone)
	if !resultsEqual(viaReplica, standalone) {
		t.Fatalf("batch member result differs from standalone run:\n%+v\n%+v", viaReplica, standalone)
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
	// Pins runJob's context.Canceled branch for a seeds batch: a member
	// run aborted mid-chunk must NOT publish a cache entry (the
	// simulation never finished, so there is no result to address), and
	// every member, running or queued, must settle cancelled exactly
	// once in the metrics.
	s, ts := newTestServer(t, Options{Workers: 1})
	long := `{"workloads":[{"cpu":"fmm","gpu":"DCT"}],"warmup_cycles":200,"measure_cycles":5000000,"seeds":3}`
	code, st := postBatch(t, ts, long)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d, want 202", code)
	}
	// The first member holds the one worker; the other two wait queued.
	pollBatch(t, ts, st.ID, func(b BatchStatus) bool { return b.Running == 1 }, 30*time.Second)

	// A drain with an already-expired context is the force-cancel path:
	// rootCancel fires immediately, the queued members are withdrawn and
	// the running one observes it at the next chunk boundary — tens of
	// milliseconds into a run that would otherwise take tens of seconds.
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
	if m.JobsCompleted != 0 || m.JobsStarted != 1 {
		t.Fatalf("aborted run: completed=%d started=%d, want 0/1", m.JobsCompleted, m.JobsStarted)
	}
}

func TestBatchSeedsCancelledWhileQueuedSkipsCarrier(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 8})
	_, running := postJob(t, ts, longJob)
	pollUntil(t, ts, running.ID, func(s JobStatus) bool { return s.State == string(StateRunning) }, 10*time.Second)

	// The worker is pinned, so the seeds batch's members sit queued.
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

	// Unblock the pinned worker and confirm no member ever ran.
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+running.ID, nil)
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
	}
	pollUntil(t, ts, running.ID, func(s JobStatus) bool { return JobState(s.State).Terminal() }, 5*time.Second)
	var m MetricsSnapshot
	getJSON(t, ts.URL+"/metrics", &m)
	if m.JobsStarted != 1 {
		t.Fatalf("jobs started %d, want 1 (the pinned job only): a cancelled member still ran", m.JobsStarted)
	}
}

// TestBatchSeedsMembersStreamOwnWindows follows every member of a
// seeds:3 batch on its own /events feed: each streams the window frames
// of its own run, stamped with its own job id, before its end frame.
func TestBatchSeedsMembersStreamOwnWindows(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	_, st := postBatch(t, ts, seedsBatch)
	done := pollBatch(t, ts, st.ID, func(b BatchStatus) bool { return b.State == "done" }, 60*time.Second)
	if len(done.Points) != 3 {
		t.Fatalf("batch has %d points, want 3", len(done.Points))
	}
	for _, p := range done.Points {
		frames := collectFrames(t, openStream(t, ts.URL+"/v1/jobs/"+p.ID+"/events", "", 0))
		checkFeedShape(t, frames)
		wins := windowFrames(t, frames)
		// 2,000 measured cycles at the default 500-cycle window.
		if len(wins) != 4 {
			t.Fatalf("member %s streamed %d window frames, want 4", p.ID, len(wins))
		}
		for _, w := range wins {
			if w.JobID != p.ID {
				t.Fatalf("member %s's feed carries a window of job %s", p.ID, w.JobID)
			}
		}
	}
}
