package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"

	"repro/internal/models"
)

// The shard layer fans a batch's points across sibling pearld daemons.
// Ownership is decided by rendezvous-hashing each point's content hash
// against the peer set, so the same point always lands on the same
// peer no matter how the batch is sliced. Results travel back as
// CacheEntry envelopes over the cache-exchange endpoints — the same
// format `-warm-cache` accepts — and locally executed points are
// replicated out the same way, so every shard's disk cache converges
// on the full result set and a re-submission anywhere is a hit.
// Results are deterministic (golden tests prove byte-identical output
// across processes), which is what makes cross-shard cache fills sound
// by construction.
//
// Every remote step degrades gracefully: a peer that is down, draining
// (503), rejecting, timing out, or serving a corrupt entry costs bounded
// retries with exponential backoff and then the point simply runs
// locally. Sharding can therefore never fail a batch that a single
// daemon could complete.

// shardPool is the configured peer set plus the dispatch pacing knobs.
type shardPool struct {
	peers []*peerClient
	// sem bounds concurrently dispatched remote points; excess points
	// wait for a slot (the peer's own queue provides the real
	// backpressure, this just caps open HTTP work).
	sem chan struct{}

	retries      int
	retryBase    time.Duration
	pollInterval time.Duration
	// serviceToken authenticates peer calls that have no submitting
	// tenant's token to forward (anonymous local traffic, background
	// replication) against tokenized peers.
	serviceToken string
	// streamClient carries long-lived SSE proxies of peer job feeds: no
	// client Timeout (which would kill a healthy stream mid-run) — each
	// request is bounded by its context instead.
	streamClient *http.Client
}

// tokenFor picks the credential a peer call rides on: the submitting
// tenant's own token when it presented one, else the cluster's shard
// service token — so a tokenized cluster never 401s its own
// coordinator, and per-tenant attribution carries across shards.
func (p *shardPool) tokenFor(job *Job) string {
	if job.token != "" {
		return job.token
	}
	return p.serviceToken
}

// peerClient is one sibling daemon: its base URL and a shared HTTP
// client whose Timeout bounds each individual request.
type peerClient struct {
	base   string
	client *http.Client
}

// authorize attaches the bearer token (when any) to an outbound peer
// request.
func authorize(req *http.Request, tok string) {
	if tok != "" {
		req.Header.Set("Authorization", "Bearer "+tok)
	}
}

// newShardPool validates Options.Peers into a pool, or nil when no
// peers are configured (sharding off).
func newShardPool(opts Options) (*shardPool, error) {
	if len(opts.Peers) == 0 {
		return nil, nil
	}
	client := &http.Client{Timeout: opts.ShardTimeout}
	p := &shardPool{
		retries:      opts.ShardRetries,
		retryBase:    opts.ShardRetryBase,
		pollInterval: opts.ShardPollInterval,
		serviceToken: opts.ShardToken,
		streamClient: &http.Client{},
	}
	seen := make(map[string]bool)
	for _, raw := range opts.Peers {
		base := strings.TrimRight(strings.TrimSpace(raw), "/")
		if base == "" || seen[base] {
			continue
		}
		u, err := url.Parse(base)
		if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
			return nil, fmt.Errorf("shard: peer %q is not an absolute http(s) base URL", raw)
		}
		seen[base] = true
		p.peers = append(p.peers, &peerClient{base: base, client: client})
	}
	if len(p.peers) == 0 {
		return nil, nil
	}
	n := 4 * len(p.peers)
	if n > 16 {
		n = 16
	}
	p.sem = make(chan struct{}, n)
	return p, nil
}

// localNode is the dispatching daemon's own identity in the rendezvous
// ranking. It only needs to be distinct from the peer URLs: ownership
// is decided per dispatching daemon, not globally.
const localNode = "local"

// rendezvousScore ranks node for key (highest-random-weight hashing).
func rendezvousScore(key, node string) uint64 {
	sum := sha256.Sum256([]byte(node + "\x00" + key))
	return binary.BigEndian.Uint64(sum[:8])
}

// owner returns the peer that owns key, or nil when the local daemon
// ranks highest and the point should run here.
func (p *shardPool) owner(key string) *peerClient {
	bestScore := rendezvousScore(key, localNode)
	var best *peerClient
	for _, pc := range p.peers {
		if s := rendezvousScore(key, pc.base); s > bestScore {
			bestScore, best = s, pc
		}
	}
	return best
}

// Peer-call error classes. Unavailable errors (connection refused,
// timeouts, 5xx, draining 503) are retried and then fall back to local
// execution; rejections (4xx) skip the retries and fall back at once.
var (
	errPeerUnavailable = errors.New("peer unavailable")
	errPeerRejected    = errors.New("peer rejected job")
	errModelMissing    = errors.New("peer is missing the model artifact")
	// errPeerRetired: the peer answered 410 for a job it issued, so the
	// job settled there and its record has since been retired.
	errPeerRetired = errors.New("peer retired the job")
)

// wireRequest re-encodes a resolved spec as the JobRequest a shard peer
// will resolve to the same content hash: the complete configuration
// rides in Config (with ML model refs already pinned to the artifact's
// content hash by finalize — the name->hash agreement point between
// shards), and seed, link scale and timeout ship explicitly.
func (s jobSpec) wireRequest() (JobRequest, error) {
	raw, err := json.Marshal(s.Config)
	if err != nil {
		return JobRequest{}, fmt.Errorf("shard: encoding config: %w", err)
	}
	var cfg map[string]any
	if err := json.Unmarshal(raw, &cfg); err != nil {
		return JobRequest{}, fmt.Errorf("shard: encoding config: %w", err)
	}
	return JobRequest{
		Backend:   s.Backend,
		Config:    cfg,
		Workload:  WorkloadSpec{CPU: s.Pair.CPU.Name, GPU: s.Pair.GPU.Name},
		Seed:      s.Seed,
		LinkScale: s.LinkScale,
		TimeoutMS: s.timeout.Milliseconds(),
	}, nil
}

// --- peer HTTP surface ---

// fetchEntry retrieves the peer's cache entry for key via
// GET /v1/cache/{key}. A miss is (nil, nil). The body passes through
// decodeCacheEntry — exactly the validation `-warm-cache` applies — and
// must be keyed as requested, so a corrupt or mis-keyed peer response
// can never enter the local cache.
func (pc *peerClient) fetchEntry(ctx context.Context, key, tok string) (*JobResult, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, pc.base+"/v1/cache/"+key, nil)
	if err != nil {
		return nil, err
	}
	authorize(req, tok)
	resp, err := pc.client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errPeerUnavailable, err)
	}
	defer resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusNotFound:
		return nil, nil
	case resp.StatusCode != http.StatusOK:
		return nil, fmt.Errorf("%w: cache fetch HTTP %d", errPeerUnavailable, resp.StatusCode)
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxEntryBytes+1))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errPeerUnavailable, err)
	}
	entry, err := decodeCacheEntry(data)
	if err != nil {
		return nil, fmt.Errorf("peer %s cache entry %s: %w", pc.base, key, err)
	}
	if entry.Key != key {
		return nil, fmt.Errorf("peer %s served entry keyed %q, want %q", pc.base, entry.Key, key)
	}
	return entry.Result, nil
}

// pushEntry publishes a completed entry to the peer via POST /v1/cache.
func (pc *peerClient) pushEntry(ctx context.Context, key string, result *JobResult, tok string) error {
	data, err := encodeCacheEntry(CacheEntry{Key: key, Result: result})
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, pc.base+"/v1/cache", bytes.NewReader(data))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	authorize(req, tok)
	resp, err := pc.client.Do(req)
	if err != nil {
		return fmt.Errorf("%w: %v", errPeerUnavailable, err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent && resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%w: cache push HTTP %d", errPeerUnavailable, resp.StatusCode)
	}
	return nil
}

// submitJob posts the request to the peer and returns the accepted
// job's status. 503 (draining or queue-full) and 429 (the forwarded
// tenant throttled on the peer) map to errPeerUnavailable so the
// dispatcher retries and then degrades to local execution; a 400
// whose cause is an unresolvable model maps to errModelMissing so the
// dispatcher can upload the artifact and retry.
func (pc *peerClient) submitJob(ctx context.Context, wire JobRequest, tok string) (JobStatus, error) {
	body, err := json.Marshal(wire)
	if err != nil {
		return JobStatus{}, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, pc.base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return JobStatus{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	authorize(req, tok)
	resp, err := pc.client.Do(req)
	if err != nil {
		return JobStatus{}, fmt.Errorf("%w: %v", errPeerUnavailable, err)
	}
	defer resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted:
		var st JobStatus
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			return JobStatus{}, fmt.Errorf("%w: decoding submit response: %v", errPeerUnavailable, err)
		}
		return st, nil
	case resp.StatusCode >= 500 || resp.StatusCode == http.StatusTooManyRequests:
		return JobStatus{}, fmt.Errorf("%w: submit HTTP %d", errPeerUnavailable, resp.StatusCode)
	default:
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		// resolveModel's client-facing message; the peer speaks our own
		// dialect, so matching it is a protocol, not a heuristic.
		if resp.StatusCode == http.StatusBadRequest && bytes.Contains(msg, []byte("no hosted model")) {
			return JobStatus{}, fmt.Errorf("%w: %s", errModelMissing, msg)
		}
		return JobStatus{}, fmt.Errorf("%w: HTTP %d: %s", errPeerRejected, resp.StatusCode, msg)
	}
}

// jobStatus polls one remote job.
func (pc *peerClient) jobStatus(ctx context.Context, id, tok string) (JobStatus, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, pc.base+"/v1/jobs/"+id, nil)
	if err != nil {
		return JobStatus{}, err
	}
	authorize(req, tok)
	resp, err := pc.client.Do(req)
	if err != nil {
		return JobStatus{}, fmt.Errorf("%w: %v", errPeerUnavailable, err)
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusGone:
		return JobStatus{}, errPeerRetired
	default:
		return JobStatus{}, fmt.Errorf("%w: status HTTP %d", errPeerUnavailable, resp.StatusCode)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return JobStatus{}, fmt.Errorf("%w: decoding status: %v", errPeerUnavailable, err)
	}
	return st, nil
}

// cancelJob best-effort cancels an orphaned remote job (the local point
// was cancelled while the peer was still simulating it).
func (pc *peerClient) cancelJob(ctx context.Context, id, tok string) {
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, pc.base+"/v1/jobs/"+id, nil)
	if err != nil {
		return
	}
	authorize(req, tok)
	if resp, err := pc.client.Do(req); err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
}

// uploadModel ships the artifact to the peer under its content hash, so
// a hash-pinned ML job resolves there exactly as it did locally.
func (pc *peerClient) uploadModel(ctx context.Context, art *models.Artifact, tok string) error {
	var buf bytes.Buffer
	if err := art.Save(&buf); err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		pc.base+"/v1/models?name="+url.QueryEscape(art.Hash), &buf)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	authorize(req, tok)
	resp, err := pc.client.Do(req)
	if err != nil {
		return fmt.Errorf("%w: %v", errPeerUnavailable, err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		return fmt.Errorf("%w: model upload HTTP %d", errPeerUnavailable, resp.StatusCode)
	}
	return nil
}

// --- dispatch orchestration ---

// feedBatchSharded partitions a batch's deferred leader points by
// rendezvous ownership: remote-owned points dispatch to their peer
// (falling back to the local queue on any failure) while local-owned
// points trickle into the bounded queue exactly as an unsharded batch
// would, with their completed entries replicated out to the peers.
// Each point, a seeds:N member included, is routed by its own cache
// key.
func (s *Server) feedBatchSharded(deferred []*Job) {
	var local []*Job
	for _, job := range deferred {
		peer := s.shard.owner(job.key)
		if peer == nil {
			s.replicateOnDone(job)
			local = append(local, job)
			continue
		}
		s.metrics.inc(&s.metrics.totals.ShardRemoteDispatched)
		go s.dispatchRemote(job, peer)
	}
	if len(local) > 0 {
		s.feedBatch(local)
	}
}

// dispatchRemote drives one remote-owned point to completion on its
// peer, or degrades it to local execution — a dead, draining, slow or
// corrupt peer costs latency, never the point.
func (s *Server) dispatchRemote(job *Job, peer *peerClient) {
	select {
	case s.shard.sem <- struct{}{}:
	case <-job.exec.ctx.Done():
		return
	}
	err := s.runRemote(job, peer)
	<-s.shard.sem
	if err == nil {
		return
	}
	if state, _, _ := job.outcome(); state.Terminal() {
		// Cancelled (or otherwise settled) while the remote attempt was
		// in flight; nothing left to run.
		return
	}
	s.metrics.inc(&s.metrics.totals.ShardLocalFallbacks)
	// The fallback execution still replicates, so the surviving peers
	// converge even on points whose owner is down.
	s.replicateOnDone(job)
	s.feedBatch([]*Job{job})
}

// runRemote executes one point on the peer: pre-check its cache, submit
// (with bounded retries + exponential backoff, uploading the ML
// artifact once on a model-missing rejection), poll to terminal, then
// import the result through the validated CacheEntry envelope. Any
// error means "run it locally instead".
func (s *Server) runRemote(job *Job, peer *peerClient) error {
	// The remote attempt gets the job's own wall-clock budget plus one
	// request timeout of slack; past that the point falls back while it
	// can still run locally.
	budget := job.exec.spec.timeout + peer.client.Timeout
	ctx, cancel := context.WithTimeout(job.exec.ctx, budget)
	defer cancel()
	tok := s.shard.tokenFor(job)

	// The peer may already hold the entry (an earlier batch, another
	// shard's replication): one GET beats a whole submit/poll cycle.
	if result, err := peer.fetchEntry(ctx, job.key, tok); err == nil && result != nil {
		s.importRemote(job, result)
		return nil
	}

	wire, err := job.exec.spec.wireRequest()
	if err != nil {
		return err
	}
	var st JobStatus
	backoff := s.shard.retryBase
	uploaded := false
	for attempt := 0; ; {
		st, err = peer.submitJob(ctx, wire, tok)
		if err == nil {
			break
		}
		if errors.Is(err, errModelMissing) && !uploaded {
			art := job.exec.spec.artifact
			if art == nil {
				return err
			}
			if uerr := peer.uploadModel(ctx, art, tok); uerr != nil {
				return uerr
			}
			uploaded = true
			continue // resubmit immediately; the miss is repaired
		}
		if !errors.Is(err, errPeerUnavailable) {
			return err
		}
		if attempt++; attempt >= s.shard.retries {
			return err
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(backoff):
		}
		backoff *= 2
	}
	if st.CacheKey != job.key {
		// Version skew: the peer resolved a different content hash, so
		// its result would not be ours.
		return fmt.Errorf("peer %s resolved key %s, want %s", peer.base, st.CacheKey, job.key)
	}

	// Mirror the peer's live event feed into the local rings while the
	// point runs remotely; ctx dies when runRemote returns, so the
	// proxy can never outlive the dispatch. Pure observability: its
	// failures never touch the point's outcome.
	go s.proxyPeerFeed(ctx, job, peer, st.ID, tok)

	// Poll to terminal, tolerating transient status-poll failures up to
	// the retry budget. A peer that retired the job (410) settled it
	// before this poll could see how: if it completed, its result is in
	// the peer's cache under our key, and a miss below falls back to
	// local execution.
	misses := 0
	retired := false
	for !retired && !JobState(st.State).Terminal() {
		select {
		case <-ctx.Done():
			// Release the peer's worker if our side gave up first.
			dctx, dcancel := context.WithTimeout(context.Background(), peer.client.Timeout)
			peer.cancelJob(dctx, st.ID, tok)
			dcancel()
			return ctx.Err()
		case <-time.After(s.shard.pollInterval):
		}
		next, err := peer.jobStatus(ctx, st.ID, tok)
		switch {
		case errors.Is(err, errPeerRetired):
			retired = true
		case err != nil:
			if misses++; misses >= s.shard.retries {
				return err
			}
		default:
			misses = 0
			st = next
		}
	}
	if !retired && st.State != string(StateDone) {
		return fmt.Errorf("remote job %s on %s finished %s: %s", st.ID, peer.base, st.State, st.Error)
	}
	result, err := peer.fetchEntry(ctx, job.key, tok)
	if err != nil {
		return err
	}
	if result == nil {
		return fmt.Errorf("peer %s settled job %s but serves no cache entry for %s", peer.base, st.ID, job.key)
	}
	s.importRemote(job, result)
	return nil
}

// importRemote lands a validated remote result: published to both local
// cache layers first (the exactly-once invariant duplicates rely on),
// then the job settles as remotely served.
func (s *Server) importRemote(job *Job, result *JobResult) {
	s.store(job.key, result)
	s.settle(job, outcome{state: StateDone, result: result, via: remote})
}

// replicateOnDone pushes the job's entry to every peer once it
// completes locally, so the shard caches converge no matter where a
// point ran. Best-effort: a down peer just misses this fill and will
// recompute or fetch on demand.
func (s *Server) replicateOnDone(job *Job) {
	// Capture the credential now: the subscribe callback may fire after
	// the registry has recycled the job's slot.
	tok := s.shard.tokenFor(job)
	job.subscribe(func(j *Job) {
		state, result, _ := j.outcome()
		if state != StateDone || result == nil {
			return
		}
		go s.replicate(j.key, result, tok)
	})
}

// replicate fans one completed entry out to the peer set.
func (s *Server) replicate(key string, result *JobResult, tok string) {
	for _, pc := range s.shard.peers {
		ctx, cancel := context.WithTimeout(s.rootCtx, pc.client.Timeout)
		err := pc.pushEntry(ctx, key, result, tok)
		cancel()
		if err != nil {
			s.metrics.inc(&s.metrics.totals.ShardReplicateErrors)
		} else {
			s.metrics.inc(&s.metrics.totals.ShardReplicated)
		}
	}
}

// --- cache-exchange handlers ---

// handleCacheGet is GET /v1/cache/{key}: the read side of the shard
// cache exchange. It serves the full cache stack (memory, then disk)
// as a CacheEntry envelope — byte-compatible with the disk store's
// files and `pearlbench -cache-out` artifacts.
func (s *Server) handleCacheGet(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if !validCacheKey(key) {
		httpError(w, http.StatusBadRequest, "invalid cache key %q", key)
		return
	}
	hit, _, ok := s.lookup(key)
	if !ok {
		httpError(w, http.StatusNotFound, "no cached entry for %s", key)
		return
	}
	s.metrics.inc(&s.metrics.totals.CacheExports)
	writeJSON(w, http.StatusOK, CacheEntry{Key: key, Result: hit.result})
}

// handleCachePut is POST /v1/cache: the write side of the exchange.
// The body is validated by decodeCacheEntry exactly like `-warm-cache`
// input; anything malformed, oversized or mis-keyed is a 400 and never
// touches the cache.
func (s *Server) handleCachePut(w http.ResponseWriter, r *http.Request) {
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxEntryBytes))
	if err != nil {
		httpError(w, http.StatusBadRequest, "reading entry: %v", err)
		return
	}
	entry, err := decodeCacheEntry(data)
	if err != nil {
		httpError(w, http.StatusBadRequest, "invalid cache entry: %v", err)
		return
	}
	s.store(entry.Key, entry.Result)
	s.metrics.inc(&s.metrics.totals.CacheImports)
	w.WriteHeader(http.StatusNoContent)
}
