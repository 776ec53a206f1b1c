package server

import (
	"encoding/json"
	"sync"

	"repro/internal/experiments"
)

// The streaming layer's buffer: every job that may run (and every
// batch) owns a bounded eventRing the simulation writes into and SSE
// handlers read out of; a cache hit's one-frame feed is built on
// request. The contract is strictly no-backpressure: an append never
// blocks and never fails upward into the kernel — when the ring is
// full the oldest event is dropped and a cumulative dropped counter is
// stamped into every subsequent frame, so a slow or absent consumer
// costs history, never simulation throughput. Sequence numbers are the
// SSE event ids: monotone per ring, assigned at append, which is what
// makes Last-Event-ID resume exact even across drops.

// Event kinds on the wire (the SSE "event:" field).
const (
	eventKindWindow   = "window"
	eventKindProgress = "progress"
	eventKindEnd      = "end"
)

// streamEvent is one buffered frame: its ring sequence number, kind,
// and the marshalled JSON body (marshalled at append time under the
// ring lock, so the embedded dropped counter is consistent with the
// ring state the moment the frame was created).
type streamEvent struct {
	seq  uint64
	kind string
	data []byte
}

// frameMeta is embedded by every event body so the ring can stamp its
// cumulative drop counter into the frame at append time.
type frameMeta struct {
	// Dropped is how many events this ring had discarded (oldest-first
	// overflow) when this frame was appended; a consumer that sees it
	// grow — or sees a gap in the SSE ids — knows it missed frames.
	Dropped uint64 `json:"dropped"`
}

func (f *frameMeta) setDropped(n uint64) { f.Dropped = n }

// framePayload is any event body the ring can stamp before marshalling.
type framePayload interface{ setDropped(uint64) }

// WindowEvent is the body of a "window" SSE frame: one reservation
// window of live measurement, tagged with the job it came from (batch
// feeds interleave windows from many member jobs).
type WindowEvent struct {
	frameMeta
	JobID string `json:"job_id"`
	Label string `json:"label"`
	Pair  string `json:"pair"`
	experiments.WindowStats
}

// JobEndEvent is the body of a job feed's terminal "end" frame. Every
// feed ends with one, whatever path the job took — simulated, cache
// hit, coalesced follower, remotely served, failed or cancelled — so a
// fully-warm replay still streams a complete, well-formed feed.
type JobEndEvent struct {
	frameMeta
	Status JobStatus `json:"status"`
}

// BatchProgressEvent is the body of a batch feed's "progress" frame,
// emitted as each member point reaches a terminal state: the point
// that settled, the batch counters, and the incremental per-series
// running means (the same aggregation GET .../results serves).
type BatchProgressEvent struct {
	frameMeta
	BatchID string    `json:"batch_id"`
	Point   JobStatus `json:"point"`
	Total   int       `json:"total"`
	Done    int       `json:"done"`
	Failed  int       `json:"failed"`
	// Cancelled and Cached mirror BatchStatus accounting.
	Cancelled int         `json:"cancelled"`
	Cached    int         `json:"cached"`
	Progress  float64     `json:"progress"`
	Series    []SeriesRow `json:"series"`
}

// BatchEndEvent closes a batch feed once every point is terminal.
type BatchEndEvent struct {
	frameMeta
	Status BatchStatus `json:"status"`
	Series []SeriesRow `json:"series"`
}

// eventRing is the bounded drop-oldest frame buffer. Readers never
// register anywhere: they poll since(seq) and park on the returned
// broadcast channel, so an abandoned reader holds no ring state to
// leak — "unsubscribing" is simply returning.
type eventRing struct {
	mu       sync.Mutex
	buf      []streamEvent // grows by append up to capacity, ring-indexed once full
	capacity int           // bound on len(buf)
	head     int           // index of the oldest buffered event (0 until full)
	nextSeq  uint64        // next sequence number (first event gets 1)
	dropped  uint64
	closed   bool
	notify   chan struct{} // closed+replaced on every append/close
}

// newEventRing returns an empty ring bounded at capacity frames. Storage
// is not reserved up front: most rings (coalesced, remote and failed
// jobs) only ever hold their one end frame.
func newEventRing(capacity int) *eventRing {
	if capacity < 1 {
		capacity = 1
	}
	return &eventRing{
		capacity: capacity,
		nextSeq:  1,
		notify:   make(chan struct{}),
	}
}

// append buffers one frame, evicting the oldest on overflow. Returns
// whether the frame was accepted (false once the ring is closed) and
// whether an old frame was evicted to make room. Never blocks. A nil
// ring (a job constructed without a feed) swallows the frame.
func (r *eventRing) append(kind string, body framePayload) (appended, evicted bool) {
	if r == nil {
		return false, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return false, false
	}
	return r.push(kind, body)
}

// push marshals and stores one frame; callers hold mu. Nothing is ever
// removed except by eviction, so every slot of buf is live: the ring
// appends until it reaches capacity and from then on overwrites the
// oldest frame in place.
func (r *eventRing) push(kind string, body framePayload) (appended, evicted bool) {
	evicted = len(r.buf) == r.capacity
	dropped := r.dropped
	if evicted {
		dropped++
	}
	body.setDropped(dropped)
	data, err := json.Marshal(body)
	if err != nil {
		// Event bodies are plain structs of scalars; this cannot happen,
		// and an unmarshalable frame is worth neither a seq gap nor an
		// eviction.
		return false, false
	}
	r.dropped = dropped
	ev := streamEvent{seq: r.nextSeq, kind: kind, data: data}
	if evicted {
		r.buf[r.head] = ev
		r.head = (r.head + 1) % len(r.buf)
	} else {
		r.buf = append(r.buf, ev)
	}
	r.nextSeq++
	close(r.notify)
	r.notify = make(chan struct{})
	return true, evicted
}

// close appends the terminal frame and seals the ring: subsequent
// appends are dropped silently, waiting readers wake, and new readers
// replay the buffer then see EOF. Idempotent; nil-safe like append.
func (r *eventRing) close(kind string, body framePayload) bool {
	if r == nil {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return false
	}
	ok, _ := r.push(kind, body)
	r.closed = true
	return ok
}

// since returns the buffered events with seq > after, whether the ring
// is sealed, and a channel that closes on the next append — the
// reader's park signal. The returned slice aliases immutable frames
// (frames are never mutated after append), so no copy is needed. A nil
// ring reads as empty and sealed.
func (r *eventRing) since(after uint64) (evs []streamEvent, closed bool, wait <-chan struct{}) {
	if r == nil {
		return nil, true, nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.buf {
		ev := r.buf[(r.head+i)%len(r.buf)]
		if ev.seq > after {
			evs = append(evs, ev)
		}
	}
	return evs, r.closed, r.notify
}

// stats snapshots the ring's lifetime accounting for tests/metrics.
func (r *eventRing) stats() (appended, dropped uint64, closed bool) {
	if r == nil {
		return 0, 0, true
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.nextSeq - 1, r.dropped, r.closed
}
