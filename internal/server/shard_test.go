package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// shardedOptions configures a daemon sharding onto peers with test-fast
// retry and poll pacing.
func shardedOptions(peers ...string) Options {
	return Options{
		Workers:           2,
		QueueDepth:        16,
		Peers:             peers,
		ShardRetries:      2,
		ShardRetryBase:    time.Millisecond,
		ShardPollInterval: 2 * time.Millisecond,
	}
}

func TestShardPoolConstruction(t *testing.T) {
	if p, err := newShardPool(Options{}.withDefaults()); err != nil || p != nil {
		t.Fatalf("no peers should disable sharding, got (%v, %v)", p, err)
	}
	p, err := newShardPool(Options{
		Peers: []string{"http://a:8080", "http://a:8080/", " http://b:8080 ", ""},
	}.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	if len(p.peers) != 2 {
		t.Fatalf("peer list not deduped/trimmed: %d peers, want 2", len(p.peers))
	}
	for _, bad := range []string{"a:8080", "ftp://a:21", "http://", "//host:1", "/relative"} {
		if _, err := newShardPool(Options{Peers: []string{bad}}.withDefaults()); err == nil {
			t.Errorf("peer %q accepted, want error", bad)
		}
	}
	// New must surface the misconfiguration instead of silently booting
	// an unsharded daemon.
	if _, err := New(Options{Peers: []string{"not-a-url"}}); err == nil {
		t.Fatal("New accepted an invalid peer URL")
	}
}

// TestPeerCancelJob: cancelling an orphaned remote job DELETEs it on the
// peer with the caller's bearer token, and an unreachable peer is
// ignored (the cancel is best effort).
func TestPeerCancelJob(t *testing.T) {
	type call struct{ method, path, auth string }
	calls := make(chan call, 1)
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls <- call{r.Method, r.URL.Path, r.Header.Get("Authorization")}
		w.WriteHeader(http.StatusAccepted)
	}))
	pc := &peerClient{base: peer.URL, client: peer.Client()}
	pc.cancelJob(context.Background(), "job-000042", "tok-alice")
	if got, want := <-calls, (call{http.MethodDelete, "/v1/jobs/job-000042", "Bearer tok-alice"}); got != want {
		t.Fatalf("peer saw %+v, want %+v", got, want)
	}
	peer.Close()
	pc.cancelJob(context.Background(), "job-000042", "tok-alice") // must return quietly
}

func TestRendezvousOwnershipIsStableAndSpread(t *testing.T) {
	p, err := newShardPool(Options{Peers: []string{"http://a:1", "http://b:1"}}.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for i := 0; i < 64; i++ {
		key := fmt.Sprintf("%032x", i)
		first := p.owner(key)
		for j := 0; j < 3; j++ {
			if p.owner(key) != first {
				t.Fatalf("owner of %s not stable across calls", key)
			}
		}
		name := localNode
		if first != nil {
			name = first.base
		}
		counts[name]++
	}
	// sha256 is fixed, so this is deterministic: all three nodes (local
	// + both peers) must own a share of 64 keys.
	if len(counts) != 3 {
		t.Fatalf("ownership not spread across nodes: %v", counts)
	}
}

// TestWireRequestRoundTripsContentHash: the request a dispatcher ships
// must resolve on the peer to the identical content hash, or remote
// results could never satisfy the local point.
func TestWireRequestRoundTripsContentHash(t *testing.T) {
	for _, body := range []string{
		quickJob,
		`{"backend":"cmesh","link_scale":4,"workload":{"cpu":"fmm","gpu":"DCT"},"warmup_cycles":200,"measure_cycles":2000}`,
		`{"preset":"static-32","seed":77,"workload":{"cpu":"x264","gpu":"Reduction"},"warmup_cycles":300,"measure_cycles":3000}`,
	} {
		var req JobRequest
		if err := json.Unmarshal([]byte(body), &req); err != nil {
			t.Fatal(err)
		}
		spec, err := req.resolve(time.Minute, nil)
		if err != nil {
			t.Fatalf("resolve %s: %v", body, err)
		}
		wire, err := spec.wireRequest()
		if err != nil {
			t.Fatalf("wireRequest: %v", err)
		}
		respec, err := wire.resolve(time.Minute, nil)
		if err != nil {
			t.Fatalf("peer-side resolve of wire request: %v", err)
		}
		if got, want := respec.Key(), spec.Key(); got != want {
			t.Fatalf("wire round trip changed the content hash: %s -> %s (%s)", want, got, body)
		}
	}
}

func TestCacheExchangeEndpoints(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1})

	if code := getJSON(t, ts.URL+"/v1/cache/not-a-key", nil); code != http.StatusBadRequest {
		t.Fatalf("invalid key GET: HTTP %d, want 400", code)
	}
	if code := getJSON(t, ts.URL+"/v1/cache/"+testKey(1), nil); code != http.StatusNotFound {
		t.Fatalf("missing entry GET: HTTP %d, want 404", code)
	}

	// Import an entry keyed exactly as quickJob resolves; the later
	// submission must then be served from the imported entry.
	spec := resolveSpec(t, s, quickJob)
	key := spec.Key()
	want := testResult(42)
	entry, err := encodeCacheEntry(CacheEntry{Key: key, Result: want})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/cache", "application/json", bytes.NewReader(entry))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("import: HTTP %d, want 204", resp.StatusCode)
	}

	var got CacheEntry
	if code := getJSON(t, ts.URL+"/v1/cache/"+key, &got); code != http.StatusOK {
		t.Fatalf("export after import: HTTP %d", code)
	}
	if got.Key != key || got.Result == nil || got.Result.ThroughputBitsPerCycle != want.ThroughputBitsPerCycle {
		t.Fatalf("export round trip drifted: %+v", got)
	}

	code, st := postJob(t, ts, quickJob)
	if code != http.StatusOK || !st.Cached {
		t.Fatalf("submission after import: HTTP %d cached=%v, want 200 from cache", code, st.Cached)
	}
	m := snapshotMetrics(t, ts)
	if m.CacheImports != 1 || m.CacheExports != 1 || m.JobsStarted != 0 {
		t.Fatalf("exchange metrics imports=%d exports=%d started=%d, want 1/1/0",
			m.CacheImports, m.CacheExports, m.JobsStarted)
	}

	// Malformed imports are rejected by the same validation -warm-cache
	// applies and never touch the cache.
	for name, body := range map[string][]byte{
		"garbage":        []byte("not json"),
		"invalid key":    []byte(`{"key":"xyz","result":{"config":"x"}}`),
		"missing result": []byte(`{"key":"` + testKey(2) + `"}`),
		"oversized":      append([]byte(`{"key":"`+testKey(2)+`","result":{"config":"`), append(bytes.Repeat([]byte("a"), maxEntryBytes), []byte(`"}}`)...)...),
	} {
		resp, err := http.Post(ts.URL+"/v1/cache", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s import: HTTP %d, want 400", name, resp.StatusCode)
		}
	}
	if m := snapshotMetrics(t, ts); m.CacheImports != 1 {
		t.Fatalf("rejected imports counted: %d, want still 1", m.CacheImports)
	}
}

// partition counts how the batch's points are owned under s's pool.
func partition(s *Server, points []JobStatus) (remote int, byPeer map[string]int) {
	byPeer = map[string]int{}
	for _, p := range points {
		if owner := s.shard.owner(p.CacheKey); owner != nil {
			remote++
			byPeer[owner.base]++
		}
	}
	return remote, byPeer
}

// waitForKeys polls until every key is resolvable through s's cache
// stack (replication is asynchronous).
func waitForKeys(t *testing.T, s *Server, keys []string, deadline time.Duration) {
	t.Helper()
	stop := time.Now().Add(deadline)
	for {
		missing := 0
		for _, k := range keys {
			if _, _, ok := s.lookup(k); !ok {
				missing++
			}
		}
		if missing == 0 {
			return
		}
		if time.Now().After(stop) {
			t.Fatalf("%d of %d entries never reached the daemon's cache", missing, len(keys))
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// waitForIdenticalFiles polls until every key's entry file exists in
// every dir with byte-identical content.
func waitForIdenticalFiles(t *testing.T, dirs []string, keys []string, deadline time.Duration) {
	t.Helper()
	stop := time.Now().Add(deadline)
	for {
		converged := true
	scan:
		for _, key := range keys {
			var first []byte
			for i, dir := range dirs {
				data, err := os.ReadFile(filepath.Join(dir, key+".json"))
				if err != nil {
					converged = false
					break scan
				}
				if i == 0 {
					first = data
				} else if !bytes.Equal(first, data) {
					converged = false
					break scan
				}
			}
		}
		if converged {
			return
		}
		if time.Now().After(stop) {
			t.Fatalf("disk caches did not converge byte-identically on %d entries within %v", len(keys), deadline)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestShardedBatchCompletesAndCachesConverge is the happy path: a batch
// submitted to daemon A with peer B completes with remote-owned points
// executed on B, both disk caches converging byte-identically on the
// full result set, and a re-submission of the same batch to B served
// entirely from cache.
func TestShardedBatchCompletesAndCachesConverge(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	_, tsB := newTestServer(t, Options{Workers: 2, QueueDepth: 16, CacheDir: dirB})
	optsA := shardedOptions(tsB.URL)
	optsA.CacheDir = dirA
	sA, tsA := newTestServer(t, optsA)

	code, st := postBatch(t, tsA, eightPairBatch)
	if code != http.StatusAccepted {
		t.Fatalf("batch submit: HTTP %d", code)
	}
	remote, _ := partition(sA, st.Points)
	t.Logf("partition: %d remote, %d local", remote, len(st.Points)-remote)

	done := pollBatch(t, tsA, st.ID, func(b BatchStatus) bool { return b.State == "done" }, 120*time.Second)
	if done.Done != 8 {
		t.Fatalf("sharded batch finished %+v", done)
	}
	remoteFlagged := 0
	keys := make([]string, 0, 8)
	for _, p := range done.Points {
		if p.Remote {
			remoteFlagged++
		}
		keys = append(keys, p.CacheKey)
	}
	if remoteFlagged != remote {
		t.Fatalf("%d points flagged remote, want %d (the rendezvous partition)", remoteFlagged, remote)
	}

	mA, mB := snapshotMetrics(t, tsA), snapshotMetrics(t, tsB)
	if mA.ShardPeers != 1 {
		t.Fatalf("shard_peers = %d, want 1", mA.ShardPeers)
	}
	if mA.ShardLocalFallbacks != 0 {
		t.Fatalf("healthy peer caused %d fallbacks", mA.ShardLocalFallbacks)
	}
	if mA.ShardRemoteDispatched != uint64(remote) || mA.ShardRemoteServed != uint64(remote) {
		t.Fatalf("shard dispatch/served = %d/%d, want %d/%d",
			mA.ShardRemoteDispatched, mA.ShardRemoteServed, remote, remote)
	}
	if mA.JobsStarted != uint64(8-remote) {
		t.Fatalf("daemon A started %d simulations, want %d (its local share)", mA.JobsStarted, 8-remote)
	}
	if mB.JobsStarted != uint64(remote) {
		t.Fatalf("daemon B started %d simulations, want %d (the remote share)", mB.JobsStarted, remote)
	}

	// Both disk caches must converge on all 8 entries, byte-identically:
	// remote results import through the same CacheEntry envelope the
	// disk store writes, and local completions replicate out.
	waitForIdenticalFiles(t, []string{dirA, dirB}, keys, 30*time.Second)

	// A re-submission of the identical batch to the OTHER daemon is
	// served entirely from its converged cache: zero new simulations.
	code, again := postBatch(t, tsB, eightPairBatch)
	if code != http.StatusOK {
		t.Fatalf("converged resubmit to B: HTTP %d, want 200 (all cached)", code)
	}
	if again.State != "done" || again.Cached != 8 {
		t.Fatalf("converged resubmit: %+v", again)
	}
	if now := snapshotMetrics(t, tsB).JobsStarted; now != uint64(remote) {
		t.Fatalf("converged resubmit re-simulated: B started %d, want still %d", now, remote)
	}
}

// TestShardedBatchSurvivesDeadPeer: one healthy peer, one refusing
// connections. Every point still completes — dead-owned points fall
// back to local execution — and the healthy peer's cache still
// converges on the full set, so resubmitting there is a pure hit.
func TestShardedBatchSurvivesDeadPeer(t *testing.T) {
	sB, tsB := newTestServer(t, Options{Workers: 2, QueueDepth: 16, CacheDir: t.TempDir()})
	// A dead peer: an address that was just proven bindable, then closed.
	deadTS := httptest.NewServer(http.NotFoundHandler())
	deadURL := deadTS.URL
	deadTS.Close()

	sA, tsA := newTestServer(t, shardedOptions(tsB.URL, deadURL))
	code, st := postBatch(t, tsA, eightPairBatch)
	if code != http.StatusAccepted {
		t.Fatalf("batch submit: HTTP %d", code)
	}
	_, byPeer := partition(sA, st.Points)
	deadOwned, liveOwned := byPeer[deadURL], byPeer[tsB.URL]
	t.Logf("partition: %d live-remote, %d dead-owned, %d local", liveOwned, deadOwned, 8-liveOwned-deadOwned)

	done := pollBatch(t, tsA, st.ID, func(b BatchStatus) bool { return b.State == "done" }, 120*time.Second)
	if done.Done != 8 {
		t.Fatalf("batch with a dead peer finished %+v — a dead peer must never fail a point", done)
	}

	mA := snapshotMetrics(t, tsA)
	if mA.ShardLocalFallbacks != uint64(deadOwned) {
		t.Fatalf("fallbacks = %d, want %d (the dead peer's share)", mA.ShardLocalFallbacks, deadOwned)
	}
	if mA.ShardRemoteServed != uint64(liveOwned) {
		t.Fatalf("remote served = %d, want %d (the live peer's share)", mA.ShardRemoteServed, liveOwned)
	}
	if mA.JobsStarted != uint64(8-liveOwned) {
		t.Fatalf("daemon A started %d, want %d (local share + dead fallbacks)", mA.JobsStarted, 8-liveOwned)
	}

	// The healthy peer converges even on the dead peer's points: local
	// and fallback completions both replicate out.
	keys := make([]string, 0, 8)
	for _, p := range done.Points {
		keys = append(keys, p.CacheKey)
	}
	waitForKeys(t, sB, keys, 30*time.Second)

	startedB := snapshotMetrics(t, tsB).JobsStarted
	code, again := postBatch(t, tsB, eightPairBatch)
	if code != http.StatusOK || again.Cached != 8 {
		t.Fatalf("resubmit to healthy peer: HTTP %d, %d cached, want 200/8", code, again.Cached)
	}
	if now := snapshotMetrics(t, tsB).JobsStarted; now != startedB {
		t.Fatalf("resubmit re-simulated %d points on the healthy peer", now-startedB)
	}
}

// TestShardFallsBackWhenPeerDraining: a draining peer 503s submissions;
// its points must degrade to local execution, not fail.
func TestShardFallsBackWhenPeerDraining(t *testing.T) {
	sB, tsB := newTestServer(t, Options{Workers: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := sB.Shutdown(ctx); err != nil {
		t.Fatalf("draining peer: %v", err)
	}

	sA, tsA := newTestServer(t, shardedOptions(tsB.URL))
	code, st := postBatch(t, tsA, eightPairBatch)
	if code != http.StatusAccepted {
		t.Fatalf("batch submit: HTTP %d", code)
	}
	remote, _ := partition(sA, st.Points)

	done := pollBatch(t, tsA, st.ID, func(b BatchStatus) bool { return b.State == "done" }, 120*time.Second)
	if done.Done != 8 {
		t.Fatalf("batch with a draining peer finished %+v", done)
	}
	m := snapshotMetrics(t, tsA)
	if m.ShardLocalFallbacks != uint64(remote) || m.ShardRemoteServed != 0 {
		t.Fatalf("draining peer: fallbacks=%d served=%d, want %d/0", m.ShardLocalFallbacks, m.ShardRemoteServed, remote)
	}
	if m.JobsStarted != 8 {
		t.Fatalf("daemon A started %d simulations, want all 8 locally", m.JobsStarted)
	}
}

// TestShardCorruptPeerEntryFallsBackLocal: a peer that accepts the work
// and claims completion but serves a corrupt cache entry must not poison
// the local cache — the validated envelope rejects the entry and the
// point runs locally.
func TestShardCorruptPeerEntryFallsBackLocal(t *testing.T) {
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.Method == http.MethodPost && r.URL.Path == "/v1/jobs":
			// Echo a plausible acceptance: correct content hash, already
			// done — the dispatcher goes straight to the entry fetch.
			var req JobRequest
			if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			spec, err := req.resolve(time.Minute, nil)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			writeJSON(w, http.StatusAccepted, JobStatus{ID: "job-000001", State: string(StateDone), CacheKey: spec.Key()})
		case r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/cache/"):
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusOK)
			fmt.Fprint(w, `{"key":"mangled","result":`) // truncated garbage
		case r.Method == http.MethodPost && r.URL.Path == "/v1/cache":
			w.WriteHeader(http.StatusNoContent)
		default:
			http.NotFound(w, r)
		}
	}))
	t.Cleanup(fake.Close)

	sA, tsA := newTestServer(t, shardedOptions(fake.URL))
	code, st := postBatch(t, tsA, eightPairBatch)
	if code != http.StatusAccepted {
		t.Fatalf("batch submit: HTTP %d", code)
	}
	remote, _ := partition(sA, st.Points)

	done := pollBatch(t, tsA, st.ID, func(b BatchStatus) bool { return b.State == "done" }, 120*time.Second)
	if done.Done != 8 {
		t.Fatalf("batch against a corrupt peer finished %+v", done)
	}
	for _, p := range done.Points {
		if p.Remote {
			t.Fatalf("point %s flagged remote despite corrupt peer entries", p.ID)
		}
	}
	m := snapshotMetrics(t, tsA)
	if m.ShardRemoteServed != 0 {
		t.Fatalf("%d corrupt entries imported as remote results", m.ShardRemoteServed)
	}
	if m.ShardLocalFallbacks != uint64(remote) {
		t.Fatalf("fallbacks = %d, want %d", m.ShardLocalFallbacks, remote)
	}
	if m.JobsStarted != 8 {
		t.Fatalf("daemon started %d simulations, want all 8 locally", m.JobsStarted)
	}
}

// TestShardPeerRetiredJob: a peer that settles a point and retires its
// record before the coordinator's first poll answers that poll 410. The
// coordinator takes the point as settled there, not the peer as
// unavailable: it polls once, imports the result by cache key, and runs
// the point locally only when the peer's cache no longer holds it.
func TestShardPeerRetiredJob(t *testing.T) {
	for _, cached := range []bool{true, false} {
		t.Run(fmt.Sprintf("cached=%v", cached), func(t *testing.T) {
			var (
				mu             sync.Mutex
				polls, fetches int
			)
			fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				switch {
				case r.Method == http.MethodPost && r.URL.Path == "/v1/jobs":
					var req JobRequest
					if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
						http.Error(w, err.Error(), http.StatusBadRequest)
						return
					}
					spec, err := req.resolve(time.Minute, nil)
					if err != nil {
						http.Error(w, err.Error(), http.StatusBadRequest)
						return
					}
					writeJSON(w, http.StatusAccepted, JobStatus{ID: "job-000001", State: string(StatePending), CacheKey: spec.Key()})
				case r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/jobs/"):
					mu.Lock()
					if r.URL.Path == "/v1/jobs/job-000001" {
						polls++
					}
					mu.Unlock()
					httpError(w, http.StatusGone, "job-000001 was retired")
				case r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/cache/"):
					mu.Lock()
					fetches++
					precheck := fetches == 1
					mu.Unlock()
					if precheck || !cached {
						http.NotFound(w, r)
						return
					}
					writeJSON(w, http.StatusOK, CacheEntry{Key: strings.TrimPrefix(r.URL.Path, "/v1/cache/"), Result: testResult(7)})
				case r.Method == http.MethodPost && r.URL.Path == "/v1/cache":
					w.WriteHeader(http.StatusNoContent)
				default:
					http.NotFound(w, r)
				}
			}))
			t.Cleanup(fake.Close)

			s := newBareServer(t, shardedOptions(fake.URL))
			spec := resolveSpec(t, s, quickJob)
			anon := s.tenants.Anonymous()
			job := s.buildJob(&spec, anon, "")
			if got := s.admit(job, spec, anon, &Batch{}); got != admitDeferred {
				t.Fatalf("admit = %v, want admitDeferred", got)
			}
			s.dispatchRemote(job, s.shard.peers[0])
			for deadline := time.Now().Add(30 * time.Second); !JobState(job.Status().State).Terminal(); {
				if time.Now().After(deadline) {
					t.Fatalf("point never settled: %+v", job.Status())
				}
				time.Sleep(5 * time.Millisecond)
			}

			st, m := job.Status(), metricsOf(t, s)
			mu.Lock()
			defer mu.Unlock()
			if polls != 1 {
				t.Errorf("coordinator polled the retired job %d times, want 1", polls)
			}
			if st.State != string(StateDone) || st.Remote != cached {
				t.Fatalf("point settled %s (remote %v, error %q), want done with remote %v", st.State, st.Remote, st.Error, cached)
			}
			wantServed, wantFallbacks := uint64(1), uint64(0)
			if !cached {
				wantServed, wantFallbacks = 0, 1
			}
			if m.ShardRemoteServed != wantServed || m.ShardLocalFallbacks != wantFallbacks || m.JobsStarted != wantFallbacks {
				t.Errorf("remote served %d, fallbacks %d, started %d; want %d, %d, %d",
					m.ShardRemoteServed, m.ShardLocalFallbacks, m.JobsStarted, wantServed, wantFallbacks, wantFallbacks)
			}
			if res, _ := job.Result(); cached && res.ThroughputBitsPerCycle != 7 {
				t.Errorf("imported result throughput %v, want the peer's 7", res.ThroughputBitsPerCycle)
			}
		})
	}
}

// TestShardShipsModelArtifactsByHash: ML points resolve their model
// locally (pinning the content hash), and on a peer miss the dispatcher
// uploads the artifact under that hash and resubmits — the peer then
// resolves the identical spec without any operator action.
func TestShardShipsModelArtifactsByHash(t *testing.T) {
	sB, tsB := newTestServer(t, Options{Workers: 2, QueueDepth: 16})
	sA, tsA := newTestServer(t, shardedOptions(tsB.URL))

	art := syntheticArtifact(t, 500, 2)
	if code, body := uploadModel(t, tsA, "rw500", art); code != http.StatusCreated {
		t.Fatalf("upload to A: HTTP %d (%s)", code, body)
	}

	body := `{"preset":"ml-rw500","warmup_cycles":200,"measure_cycles":2000,"workloads":[
	 {"cpu":"fluidanimate","gpu":"DCT"},{"cpu":"fmm","gpu":"DCT"},
	 {"cpu":"radiosity","gpu":"DCT"},{"cpu":"x264","gpu":"DCT"}]}`
	code, st := postBatch(t, tsA, body)
	if code != http.StatusAccepted {
		t.Fatalf("ML batch submit: HTTP %d", code)
	}
	for _, p := range st.Points {
		if p.Model != art.Hash {
			t.Fatalf("point model %q not pinned to the artifact hash %s", p.Model, art.Hash)
		}
	}
	remote, _ := partition(sA, st.Points)
	t.Logf("ML partition: %d remote, %d local", remote, len(st.Points)-remote)

	done := pollBatch(t, tsA, st.ID, func(b BatchStatus) bool { return b.State == "done" }, 120*time.Second)
	if done.Done != 4 {
		t.Fatalf("ML batch finished %+v", done)
	}
	m := snapshotMetrics(t, tsA)
	if m.ShardLocalFallbacks != 0 {
		t.Fatalf("%d ML points fell back — the artifact upload path failed", m.ShardLocalFallbacks)
	}
	if m.ShardRemoteServed != uint64(remote) {
		t.Fatalf("remote served = %d, want %d", m.ShardRemoteServed, remote)
	}
	if remote > 0 {
		if _, ok := sB.models.Resolve(art.Hash); !ok {
			t.Fatal("peer does not host the artifact under its content hash after dispatch")
		}
	}

	// The rendezvous partition is port-dependent and may have kept every
	// batch point local; drive one ML point remote directly so the
	// miss -> upload -> resubmit protocol is always exercised.
	spec := resolveSpec(t, sA, `{"preset":"ml-rw500","seed":123,"workload":{"cpu":"fmm","gpu":"Reduction"},"warmup_cycles":200,"measure_cycles":2000}`)
	anon := sA.tenants.Anonymous()
	job := sA.buildJob(&spec, anon, "")
	// A batch member is left for the feeder to enqueue; here the test
	// dispatches it instead.
	if got := sA.admit(job, spec, anon, &Batch{}); got != admitDeferred {
		t.Fatalf("admit = %v, want admitDeferred", got)
	}
	if err := sA.runRemote(job, sA.shard.peers[0]); err != nil {
		t.Fatalf("runRemote for an ML point: %v", err)
	}
	if st := job.Status(); st.State != string(StateDone) || !st.Remote {
		t.Fatalf("directly dispatched ML point settled as %+v, want done+remote", st)
	}
	if _, ok := sB.models.Resolve(art.Hash); !ok {
		t.Fatal("peer does not host the artifact under its content hash after the direct dispatch")
	}
}
