package server

import (
	"context"
	"encoding/json"
	"net/http"
	"strconv"
	"time"

	"repro/internal/experiments"
)

// Live streaming: GET /v1/jobs/{id}/events and GET
// /v1/batches/{id}/events serve each ring as Server-Sent Events. A
// stream replays whatever the bounded ring still holds (from
// Last-Event-ID when the client resumes), then follows live appends
// until the feed's terminal "end" frame, the client disconnects, or
// the daemon shuts down. Heartbeat comments keep idle streams alive
// through proxies; per-tenant concurrent-stream caps keep a chatty
// dashboard from pinning every handler goroutine.

// streamRetryAfter hints how long a stream-capped client should wait:
// slots free as other streams close, so a short pause is right.
const streamRetryAfter = time.Second

// handleJobEvents is GET /v1/jobs/{id}/events.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	job, ok := s.reg.resolve(w, r)
	if !ok {
		return
	}
	if job.exec == nil {
		// A cache hit keeps no ring: its feed is the one "end" frame it
		// was born with, rebuilt from its unchanging status — seq 1,
		// dropped 0, exactly as a ring would have held it.
		ring := newEventRing(1)
		ring.close(eventKindEnd, &JobEndEvent{Status: job.Status()})
		s.serveStream(w, r, ring)
		return
	}
	s.serveStream(w, r, job.exec.events)
}

// handleBatchEvents is GET /v1/batches/{id}/events.
func (s *Server) handleBatchEvents(w http.ResponseWriter, r *http.Request) {
	b, ok := s.batches.resolve(w, r)
	if !ok {
		return
	}
	ring := b.feed(s.opts.StreamRingCapacity)
	if ring == nil {
		ring = b.renderFeed(s.opts.StreamRingCapacity)
	}
	s.serveStream(w, r, ring)
}

// serveStream runs one SSE connection against a ring. The handler
// goroutine is the only per-stream resource: readers poll the ring and
// park on its broadcast channel, so returning — on end frame, client
// disconnect, or shutdown — releases everything (tenant stream slot,
// metrics gauge) with nothing left subscribed to the ring.
func (s *Server) serveStream(w http.ResponseWriter, r *http.Request, ring *eventRing) {
	fl, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, "streaming unsupported by connection")
		return
	}
	tn := s.tenantOf(r)
	if !tn.AcquireStream(s.opts.MaxStreamsPerTenant) {
		s.metrics.tenantThrottled(tn.Name())
		httpRetryError(w, http.StatusTooManyRequests, streamRetryAfter,
			"tenant %s has too many open event streams (%d open)", tn.Name(), tn.Streams())
		return
	}
	defer tn.ReleaseStream()
	s.metrics.streamOpened(tn.Name())
	defer s.metrics.streamClosed(tn.Name())

	last := parseLastEventID(r)
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	heartbeat := time.NewTicker(s.opts.StreamHeartbeat)
	defer heartbeat.Stop()
	ctx := r.Context()
	for {
		evs, closed, wait := ring.since(last)
		for _, ev := range evs {
			if err := writeSSEFrame(w, ev); err != nil {
				return
			}
			last = ev.seq
		}
		if len(evs) > 0 {
			fl.Flush()
		}
		if closed {
			return
		}
		select {
		case <-ctx.Done():
			// Client went away (or the request was cancelled): unpark and
			// release the stream slot promptly.
			return
		case <-wait:
		case <-heartbeat.C:
			if err := writeSSEComment(w, "hb"); err != nil {
				return
			}
			fl.Flush()
		}
	}
}

// parseLastEventID reads the resume position: the standard
// Last-Event-ID header EventSource sends on reconnect, with a
// last_event_id query fallback for curl-style clients. Absent or
// malformed means "from the oldest buffered frame".
func parseLastEventID(r *http.Request) uint64 {
	raw := r.Header.Get("Last-Event-ID")
	if raw == "" {
		raw = r.URL.Query().Get("last_event_id")
	}
	n, err := strconv.ParseUint(raw, 10, 64)
	if err != nil {
		return 0
	}
	return n
}

// --- emission plumbing ---

// emitWindow fans one live window sample out to the job's feed and any
// batch feeds the job belongs to. Called from the simulation goroutine:
// ring appends never block and marshal nothing (each ring keeps the
// sample, and a reader marshals the frame), so the kernel never waits
// on a consumer.
func (s *Server) emitWindow(job *Job, ws experiments.WindowStats) {
	sample := windowSample{job: job, stats: ws}
	if ok, dropped := job.exec.events.append(eventKindWindow, &sample); ok {
		s.metrics.eventEmitted(job.tenant, dropped)
	}
	for _, sink := range job.exec.sinks {
		if ok, dropped := sink.append(eventKindWindow, &sample); ok {
			s.metrics.eventEmitted(job.tenant, dropped)
		}
	}
}

// closeFeedOnTerminal arranges an armed job's synthetic terminal
// frame: whatever path the job takes to a terminal state — simulated,
// settled by the cache after all, coalesced, remote, failed, cancelled,
// never scheduled — its feed ends with one "end" frame carrying the
// final status. A cache hit at submission gets the same frame from
// handleJobEvents.
func (s *Server) closeFeedOnTerminal(job *Job) {
	job.subscribe(func(j *Job) {
		ev := JobEndEvent{Status: j.Status()}
		if j.exec.events.close(eventKindEnd, &ev) {
			s.metrics.eventEmitted(j.tenant, false)
		}
	})
}

// feedView is one reading of a batch for its feed: its members, their
// counts and the series table, taken once and shared by every frame
// built from it.
type feedView struct {
	batchID string
	jobs    []*Job
	status  BatchStatus
	series  []SeriesRow
}

// view reads the batch's members once for the feed frames.
func (b *Batch) view() feedView {
	jobs := b.snapshotJobs()
	return feedView{batchID: b.ID, jobs: jobs, status: b.statusOf(jobs, false), series: seriesRows(jobs)}
}

// terminal reports whether every member had settled when v was read.
func (v *feedView) terminal() bool {
	return v.status.Done+v.status.Failed+v.status.Cancelled == v.status.Total
}

// progress is the "progress" frame for member j.
func (v *feedView) progress(j *Job) *BatchProgressEvent {
	return &BatchProgressEvent{
		BatchID:   v.batchID,
		Point:     j.Status(),
		Total:     v.status.Total,
		Done:      v.status.Done,
		Failed:    v.status.Failed,
		Cancelled: v.status.Cancelled,
		Cached:    v.status.Cached,
		Progress:  v.status.Progress,
		Series:    v.series,
	}
}

// end is the feed's terminal "end" frame.
func (v *feedView) end() *BatchEndEvent {
	return &BatchEndEvent{Status: v.status, Series: v.series}
}

// noteProgress is subscribed to every batch member: each terminal
// point appends a progress frame (batch counters + incremental series
// means), and the last one seals the feed with the end frame. Only
// runs once the batch is sealed-for-close checks: during submission,
// inline-fired subscribers (fully cached points) emit progress but
// leave closing to handleSubmitBatch's final maybeCloseFeed.
func (b *Batch) noteProgress(s *Server, j *Job) {
	v := b.view()
	if ok, dropped := b.events.append(eventKindProgress, v.progress(j)); ok {
		s.metrics.eventEmitted(j.tenant, dropped)
	}
	b.maybeCloseFeed(s, v)
}

// maybeCloseFeed ends the batch if every point was terminal when v was
// read: it seals the feed with the end frame and files the batch for
// retirement, once. A no-op until the submit loop has sealed the member
// list, so a cached prefix can never end the batch early.
func (b *Batch) maybeCloseFeed(s *Server, v feedView) {
	if !b.sealed.Load() || !v.terminal() || !b.ended.CompareAndSwap(false, true) {
		return
	}
	if b.events.close(eventKindEnd, v.end()) {
		s.metrics.eventEmitted(b.tenant, false)
	}
	s.settleBatch(b)
}

// settleBornTerminal ends a batch whose every member was a cache hit at
// submission. It keeps no ring and no subscriber: its feed is rendered
// on request (renderFeed). The frames that feed consists of count now,
// as the live path would have counted them: one progress frame per
// member, each evicting once the ring is full, and the end frame, whose
// eviction the live close does not count.
func (s *Server) settleBornTerminal(b *Batch) {
	n := uint64(b.size())
	dropped := n - min(n, uint64(s.opts.StreamRingCapacity))
	s.metrics.eventsEmitted(b.tenant, n+1, dropped)
	s.settleBatch(b)
}

// renderFeed rebuilds the feed of a batch born terminal into a fresh
// ring of the given capacity: one progress frame per member in member
// order, then the end frame. These are the frames, sequence numbers and
// drop counts the live ring would have held, since every member was
// terminal before the first progress frame.
func (b *Batch) renderFeed(capacity int) *eventRing {
	ring := newEventRing(capacity)
	v := b.view()
	for _, j := range v.jobs {
		ring.append(eventKindProgress, v.progress(j))
	}
	ring.close(eventKindEnd, v.end())
	return ring
}

// --- shard peer feed proxy ---

// proxyPeerFeed mirrors a peer's live job feed into the local job's
// rings while runRemote drives the point: window frames decoded from
// the peer's SSE stream re-emit locally under the local job identity,
// so a coordinator batch feed carries remote points' windows too. The
// same bounded retry/backoff discipline as the rest of shard.go
// applies, resuming from the last received event id; this is pure
// observability — any terminal failure here costs frames, never the
// point (runRemote's result import is independent).
func (s *Server) proxyPeerFeed(ctx context.Context, job *Job, peer *peerClient, remoteID, tok string) {
	var last uint64
	backoff := s.shard.retryBase
	for attempt := 0; attempt < s.shard.retries; attempt++ {
		done, err := s.streamPeerFeed(ctx, job, peer, remoteID, tok, &last)
		if done || ctx.Err() != nil {
			return
		}
		_ = err
		select {
		case <-ctx.Done():
			return
		case <-time.After(backoff):
		}
		backoff *= 2
	}
}

// streamPeerFeed runs one streaming attempt; done reports a clean end
// frame (the remote feed is complete).
func (s *Server) streamPeerFeed(ctx context.Context, job *Job, peer *peerClient, remoteID, tok string, last *uint64) (done bool, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		peer.base+"/v1/jobs/"+remoteID+"/events", nil)
	if err != nil {
		return false, err
	}
	if *last > 0 {
		req.Header.Set("Last-Event-ID", strconv.FormatUint(*last, 10))
	}
	authorize(req, tok)
	resp, err := s.shard.streamClient.Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusGone {
		// The peer settled and retired the job: its feed is over.
		return true, nil
	}
	if resp.StatusCode != http.StatusOK {
		return false, errPeerUnavailable
	}
	err = DecodeSSE(resp.Body, func(fr SSEFrame) error {
		if n, perr := strconv.ParseUint(fr.ID, 10, 64); perr == nil {
			*last = n
		}
		switch fr.Event {
		case eventKindWindow:
			var ev WindowEvent
			if json.Unmarshal(fr.Data, &ev) != nil {
				return nil
			}
			// Local identity, remote measurement: consumers of this
			// daemon's feeds see this daemon's job id, label and pair.
			s.emitWindow(job, ev.WindowStats)
		case eventKindEnd:
			done = true
			return ErrSSEStop
		}
		return nil
	})
	return done, err
}
