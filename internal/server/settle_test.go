package server

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/tenant"
)

// The settle battery: one row per path a job takes to a terminal state.
// Each row asserts the exact outcome counters the path moves, globally
// and per tenant, then drains the daemon and checks the identity the
// counters satisfy at quiescence.

// brokenController mints no policy, so a run built on it fails with an
// error that is neither a cancellation nor a timeout.
type brokenController struct{}

func (brokenController) Name() string                          { return "broken" }
func (brokenController) Capabilities() controller.Capabilities { return controller.Capabilities{} }
func (brokenController) Policy(uint64) (core.StatePolicy, error) {
	return nil, errors.New("no policy for this run")
}

// call runs one request through s's handler as the tenant holding token
// ("" on an open daemon).
func call(s *Server, method, path, token, body string) (int, []byte) {
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req := httptest.NewRequest(method, path, rd)
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	return w.Code, w.Body.Bytes()
}

// submit POSTs a job or batch body, which must answer want, and returns
// the new record's id.
func submit(t *testing.T, s *Server, path, token, body string, want int) string {
	t.Helper()
	code, data := call(s, http.MethodPost, path, token, body)
	if code != want {
		t.Fatalf("POST %s: HTTP %d, want %d: %.300s", path, code, want, data)
	}
	var rec struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatalf("POST %s: decoding %.300s: %v", path, data, err)
	}
	return rec.ID
}

// cancelJob DELETEs a job, which must answer 202.
func cancelJob(t *testing.T, s *Server, token, id string) {
	t.Helper()
	if code, data := call(s, http.MethodDelete, "/v1/jobs/"+id, token, ""); code != http.StatusAccepted {
		t.Fatalf("DELETE %s: HTTP %d: %.300s", id, code, data)
	}
}

// await polls until cond holds, failing after 30 s.
func await(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("%s: still waiting after 30s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// awaitJobs waits until every named job is in a state pred accepts.
func awaitJobs(t *testing.T, s *Server, pred func(JobState) bool, ids ...string) {
	t.Helper()
	for _, id := range ids {
		await(t, "job "+id, func() bool { return pred(JobState(statusOf(t, s, id).State)) })
	}
}

func terminal(st JobState) bool { return st.Terminal() }
func running(st JobState) bool  { return st == StateRunning }

// awaitBatch waits until every point of the batch is terminal.
func awaitBatch(t *testing.T, s *Server, id string) {
	t.Helper()
	b, ok := s.batches.get(id)
	if !ok {
		t.Fatalf("batch %s missing", id)
	}
	await(t, "batch "+id, func() bool {
		st := b.status(false)
		return st.Done+st.Failed+st.Cancelled == st.Total
	})
}

// pin occupies a worker with a run only a cancellation ends.
func pin(t *testing.T, s *Server, token string) string {
	t.Helper()
	id := submit(t, s, "/v1/jobs", token, longJob, http.StatusAccepted)
	awaitJobs(t, s, running, id)
	return id
}

// admitAnon admits spec as the anonymous tenant the way a decoded POST
// would, into b when b is non-nil, and returns the job.
func admitAnon(t *testing.T, s *Server, spec jobSpec, b *Batch, want admission) *Job {
	t.Helper()
	anon := s.tenants.Anonymous()
	anon.AcquireSlots(1)
	job := s.buildJob(&spec, anon)
	if got := s.admit(job, spec, anon, b); got != want {
		t.Fatalf("admit = %v, want %v", got, want)
	}
	return job
}

const (
	twoPointBatch = `{"warmup_cycles":200,"measure_cycles":2000,"workloads":[{"cpu":"fmm","gpu":"DCT"},{"cpu":"x264","gpu":"Reduction"}]}`
	seedsBatch2   = `{"warmup_cycles":200,"measure_cycles":2000,"seeds":2,"workloads":[{"cpu":"fmm","gpu":"DCT"}]}`
	longSeeds2    = `{"warmup_cycles":200,"measure_cycles":5000000,"seeds":2,"workloads":[{"cpu":"fmm","gpu":"DCT"}]}`
	// timedLeader and timedFollow share a key: the timeout is not part
	// of it.
	timedLeader = `{"workload":{"cpu":"fmm","gpu":"DCT"},"seed":5,"warmup_cycles":200,"measure_cycles":5000000,"timeout_ms":50}`
	timedFollow = `{"workload":{"cpu":"fmm","gpu":"DCT"},"seed":5,"warmup_cycles":200,"measure_cycles":5000000}`
	seed11Job   = `{"workload":{"cpu":"fmm","gpu":"DCT"},"seed":11,"warmup_cycles":200,"measure_cycles":2000}`
	seed12Job   = `{"workload":{"cpu":"fmm","gpu":"DCT"},"seed":12,"warmup_cycles":200,"measure_cycles":2000}`
)

// tally is one set of outcome counters.
type tally struct{ completed, failed, cancelled, rejected uint64 }

type settleRow struct {
	name string
	opts Options
	// multiTenant loads testTenants (alice, bob) into the daemon.
	multiTenant bool
	// run drives one terminal path and returns once the jobs it watches
	// are terminal.
	run func(t *testing.T, s *Server)
	// want is the global delta.
	want tally
	// tenants is the per-tenant delta; nil means want, all on the
	// anonymous tenant.
	tenants map[string]tally
}

var settleRows = []settleRow{
	{name: "executed done", want: tally{completed: 1}, run: func(t *testing.T, s *Server) {
		awaitJobs(t, s, terminal, submit(t, s, "/v1/jobs", "", quickJob, http.StatusAccepted))
	}},
	{name: "executed cancelled", want: tally{cancelled: 1}, run: func(t *testing.T, s *Server) {
		id := pin(t, s, "")
		cancelJob(t, s, "", id)
		awaitJobs(t, s, terminal, id)
	}},
	{name: "executed timeout", opts: Options{DefaultTimeout: 50 * time.Millisecond}, want: tally{failed: 1},
		run: func(t *testing.T, s *Server) {
			awaitJobs(t, s, terminal, submit(t, s, "/v1/jobs", "", longJob, http.StatusAccepted))
		}},
	{name: "executed error", want: tally{failed: 1}, run: func(t *testing.T, s *Server) {
		spec := resolveSpec(t, s, quickJob)
		spec.Controller = brokenController{}
		awaitJobs(t, s, terminal, admitAnon(t, s, spec, nil, admitQueued).ID)
	}},
	{name: "queued DELETE", opts: Options{Workers: 1}, want: tally{cancelled: 1}, run: func(t *testing.T, s *Server) {
		pin(t, s, "")
		cancelJob(t, s, "", submit(t, s, "/v1/jobs", "", quickJob, http.StatusAccepted))
	}},
	{name: "batch DELETE", opts: Options{Workers: 1}, want: tally{cancelled: 2}, run: func(t *testing.T, s *Server) {
		pin(t, s, "")
		bid := submit(t, s, "/v1/batches", "", twoPointBatch, http.StatusAccepted)
		if code, data := call(s, http.MethodDelete, "/v1/batches/"+bid, "", ""); code != http.StatusAccepted {
			t.Fatalf("DELETE %s: HTTP %d: %.300s", bid, code, data)
		}
		awaitBatch(t, s, bid)
	}},
	{name: "cancel_on_error sibling", opts: Options{Workers: 1}, want: tally{failed: 1, cancelled: 1},
		run: func(t *testing.T, s *Server) {
			// One worker: the first point times out while the second waits
			// in the queue, and cancel_on_error withdraws it.
			awaitBatch(t, s, submit(t, s, "/v1/batches", "", `{"cancel_on_error":true,"timeout_ms":50,`+
				`"warmup_cycles":200,"measure_cycles":5000000,`+
				`"workloads":[{"cpu":"fmm","gpu":"DCT"},{"cpu":"x264","gpu":"Reduction"}]}`, http.StatusAccepted))
		}},
	{name: "cancelled before scheduling", want: tally{cancelled: 3}, run: func(t *testing.T, s *Server) {
		// The batch is cancelled while its first point is being admitted,
		// so the other two are cancelled before they are scheduled.
		var once sync.Once
		s.testHookAfterCacheMiss = func(*Job) {
			once.Do(func() { call(s, http.MethodDelete, "/v1/batches/batch-000001", "", "") })
		}
		awaitBatch(t, s, submit(t, s, "/v1/batches", "", `{"warmup_cycles":200,"measure_cycles":2000,`+
			`"workloads":[{"cpu":"fmm","gpu":"DCT"},{"cpu":"x264","gpu":"Reduction"},{"cpu":"fmm","gpu":"Reduction"}]}`,
			http.StatusAccepted))
	}},
	{name: "drain", opts: Options{Workers: 1}, want: tally{cancelled: 2}, run: func(t *testing.T, s *Server) {
		// The queued job is withdrawn by the drain, the pinned one by its
		// worker once the expired shutdown context cancels it.
		pinned := pin(t, s, "")
		queued := submit(t, s, "/v1/jobs", "", quickJob, http.StatusAccepted)
		forceShutdown(s)
		awaitJobs(t, s, terminal, pinned, queued)
	}},
	{name: "closed feeder", want: tally{cancelled: 2}, run: func(t *testing.T, s *Server) {
		// Each seeds:2 member is withdrawn, and counts, on its own.
		s.queue.close()
		awaitBatch(t, s, submit(t, s, "/v1/batches", "", seedsBatch2, http.StatusAccepted))
	}},
	{name: "queue full", opts: Options{Workers: 1, QueueDepth: 1}, want: tally{rejected: 1}, run: func(t *testing.T, s *Server) {
		pin(t, s, "")
		submit(t, s, "/v1/jobs", "", seed11Job, http.StatusAccepted)
		if code, _ := call(s, http.MethodPost, "/v1/jobs", "", seed12Job); code != http.StatusServiceUnavailable {
			t.Fatalf("overflow submit: HTTP %d, want 503", code)
		}
	}},
	{name: "admit hit", run: func(t *testing.T, s *Server) {
		s.cache.Put(resolveSpec(t, s, quickJob).Key(), testResult(1))
		submit(t, s, "/v1/jobs", "", quickJob, http.StatusOK)
	}},
	{name: "recheck hit", run: func(t *testing.T, s *Server) {
		s.testHookAfterCacheMiss = func(j *Job) { s.cache.Put(j.key, testResult(1)) }
		submit(t, s, "/v1/jobs", "", quickJob, http.StatusOK)
	}},
	{name: "follower done", opts: Options{Workers: 1}, want: tally{completed: 1, cancelled: 1},
		run: func(t *testing.T, s *Server) {
			pinned := pin(t, s, "")
			submit(t, s, "/v1/jobs", "", quickJob, http.StatusAccepted)
			follower := submit(t, s, "/v1/jobs", "", quickJob, http.StatusAccepted)
			cancelJob(t, s, "", pinned)
			awaitJobs(t, s, terminal, follower)
		}},
	{name: "follower cancelled", opts: Options{Workers: 1}, multiTenant: true,
		want:    tally{cancelled: 3},
		tenants: map[string]tally{"alice": {cancelled: 2}, "bob": {cancelled: 1}},
		run: func(t *testing.T, s *Server) {
			// A queued leader with a same-tenant and a cross-tenant
			// follower is cancelled: each job counts once, in its tenant.
			pin(t, s, "tok-alice")
			leader := submit(t, s, "/v1/jobs", "tok-alice", quickJob, http.StatusAccepted)
			f1 := submit(t, s, "/v1/jobs", "tok-alice", quickJob, http.StatusAccepted)
			f2 := submit(t, s, "/v1/jobs", "tok-bob", quickJob, http.StatusAccepted)
			cancelJob(t, s, "tok-alice", leader)
			awaitJobs(t, s, terminal, f1, f2)
		}},
	{name: "follower failed", opts: Options{Workers: 1}, multiTenant: true,
		want:    tally{failed: 3, cancelled: 1},
		tenants: map[string]tally{"alice": {failed: 2, cancelled: 1}, "bob": {failed: 1}},
		run: func(t *testing.T, s *Server) {
			// The same with a leader that times out once the pinned job
			// (alice's one cancellation) frees the worker.
			pinned := pin(t, s, "tok-alice")
			leader := submit(t, s, "/v1/jobs", "tok-alice", timedLeader, http.StatusAccepted)
			f1 := submit(t, s, "/v1/jobs", "tok-alice", timedFollow, http.StatusAccepted)
			f2 := submit(t, s, "/v1/jobs", "tok-bob", timedFollow, http.StatusAccepted)
			cancelJob(t, s, "tok-alice", pinned)
			awaitJobs(t, s, terminal, leader, f1, f2)
		}},
	{name: "replica member done", want: tally{completed: 2}, run: func(t *testing.T, s *Server) {
		awaitBatch(t, s, submit(t, s, "/v1/batches", "", seedsBatch2, http.StatusAccepted))
	}},
	{name: "replica member cancelled", opts: Options{Workers: 2}, want: tally{cancelled: 2},
		run: func(t *testing.T, s *Server) {
			bid := submit(t, s, "/v1/batches", "", longSeeds2, http.StatusAccepted)
			b, _ := s.batches.get(bid)
			await(t, "both member runs", func() bool { return b.status(false).Running == 2 })
			forceShutdown(s)
			awaitBatch(t, s, bid)
		}},
	{name: "replica member failed", want: tally{failed: 2}, run: func(t *testing.T, s *Server) {
		timed := strings.Replace(longSeeds2, `"seeds"`, `"timeout_ms":50,"seeds"`, 1)
		awaitBatch(t, s, submit(t, s, "/v1/batches", "", timed, http.StatusAccepted))
	}},
}

// TestSettleAccounting drives every terminal path and asserts exactly
// what it counts.
func TestSettleAccounting(t *testing.T) {
	for _, row := range settleRows {
		t.Run(row.name, func(t *testing.T) {
			opts := row.opts
			if row.multiTenant {
				opts.TenantsFile = writeTenantsFile(t, testTenants)
			}
			s := newBareServer(t, opts)
			row.run(t, s)

			m := s.metrics.snapshot()
			got := tally{m.JobsCompleted, m.JobsFailed, m.JobsCancelled, m.JobsRejected}
			if got != row.want {
				t.Errorf("global %+v, want %+v", got, row.want)
			}
			tenants := row.tenants
			if tenants == nil {
				tenants = map[string]tally{tenant.AnonymousName: row.want}
			}
			for name, want := range tenants {
				ts := m.Tenants[name]
				if got := (tally{ts.JobsCompleted, ts.JobsFailed, ts.JobsCancelled, ts.JobsRejected}); got != want {
					t.Errorf("tenant %s %+v, want %+v", name, got, want)
				}
			}

			forceShutdown(s)
			checkSettledIdentity(t, s)
		})
	}
}

// checkSettledIdentity asserts, on a quiescent daemon, that every job is
// terminal and that per tenant jobs_cancelled counts the statuses that
// read cancelled and jobs_failed + jobs_rejected those that read failed.
func checkSettledIdentity(t *testing.T, s *Server) {
	t.Helper()
	cancelled := map[string]uint64{}
	failed := map[string]uint64{}
	for _, j := range s.reg.snapshot() {
		st := j.Status()
		switch JobState(st.State) {
		case StateCancelled:
			cancelled[st.Tenant]++
		case StateFailed:
			failed[st.Tenant]++
		case StateDone:
		default:
			t.Errorf("job %s still %s at quiescence", st.ID, st.State)
		}
	}
	m := s.metrics.snapshot()
	for name, ts := range m.Tenants {
		if ts.JobsCancelled != cancelled[name] || ts.JobsFailed+ts.JobsRejected != failed[name] {
			t.Errorf("tenant %s: cancelled=%d failed+rejected=%d, but %d statuses read cancelled and %d read failed",
				name, ts.JobsCancelled, ts.JobsFailed+ts.JobsRejected, cancelled[name], failed[name])
		}
	}
}

// TestSettleCountsBeforeNotify: whoever observes a terminal state also
// observes its counter. A subscriber attached before each job can
// settle reads the metrics from inside its callback.
func TestSettleCountsBeforeNotify(t *testing.T) {
	completed := func(m MetricsSnapshot) uint64 { return m.JobsCompleted }
	cancelled := func(m MetricsSnapshot) uint64 { return m.JobsCancelled }
	failed := func(m MetricsSnapshot) uint64 { return m.JobsFailed }
	rejected := func(m MetricsSnapshot) uint64 { return m.JobsRejected }
	cases := []struct {
		name    string
		opts    Options
		run     func(t *testing.T, s *Server) (watch string)
		counter func(MetricsSnapshot) uint64
		min     uint64
	}{
		{"run done", Options{}, func(t *testing.T, s *Server) string {
			return submit(t, s, "/v1/jobs", "", quickJob, http.StatusAccepted)
		}, completed, 1},
		{"run cancelled", Options{}, func(t *testing.T, s *Server) string {
			id := pin(t, s, "")
			cancelJob(t, s, "", id)
			return id
		}, cancelled, 1},
		{"timeout", Options{DefaultTimeout: 50 * time.Millisecond}, func(t *testing.T, s *Server) string {
			return submit(t, s, "/v1/jobs", "", longJob, http.StatusAccepted)
		}, failed, 1},
		{"queued DELETE", Options{Workers: 1}, func(t *testing.T, s *Server) string {
			pin(t, s, "")
			id := submit(t, s, "/v1/jobs", "", quickJob, http.StatusAccepted)
			cancelJob(t, s, "", id)
			return id
		}, cancelled, 1},
		{"drain", Options{Workers: 1}, func(t *testing.T, s *Server) string {
			pin(t, s, "")
			id := submit(t, s, "/v1/jobs", "", quickJob, http.StatusAccepted)
			forceShutdown(s)
			return id
		}, cancelled, 1},
		{"follower", Options{Workers: 1}, func(t *testing.T, s *Server) string {
			// The leader's cancellation, then the follower's own.
			pin(t, s, "")
			leader := submit(t, s, "/v1/jobs", "", quickJob, http.StatusAccepted)
			follower := submit(t, s, "/v1/jobs", "", quickJob, http.StatusAccepted)
			cancelJob(t, s, "", leader)
			return follower
		}, cancelled, 2},
		{"replica member", Options{}, func(t *testing.T, s *Server) string {
			bid := submit(t, s, "/v1/batches", "", seedsBatch2, http.StatusAccepted)
			b, _ := s.batches.get(bid)
			return b.snapshotJobs()[0].ID
		}, completed, 1},
		{"queue-full reject", Options{Workers: 1, QueueDepth: 1}, func(t *testing.T, s *Server) string {
			pin(t, s, "")
			submit(t, s, "/v1/jobs", "", seed11Job, http.StatusAccepted)
			call(s, http.MethodPost, "/v1/jobs", "", seed12Job)
			return "job-000003"
		}, rejected, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := newBareServer(t, tc.opts)
			var mu sync.Mutex
			seen := map[string]uint64{}
			s.testHookAfterCacheMiss = func(j *Job) {
				j.subscribe(func(j *Job) {
					n := tc.counter(s.metrics.snapshot())
					mu.Lock()
					seen[j.ID] = n
					mu.Unlock()
				})
			}
			id := tc.run(t, s)
			var n uint64
			await(t, "the subscriber of "+id, func() bool {
				mu.Lock()
				defer mu.Unlock()
				v, ok := seen[id]
				n = v
				return ok
			})
			if n < tc.min {
				t.Fatalf("the subscriber of %s read the counter at %d, want at least %d: the terminal state was visible before its count",
					id, n, tc.min)
			}
		})
	}
}
