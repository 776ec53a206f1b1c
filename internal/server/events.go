package server

import (
	"encoding/json"
	"math"
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

// streamEvent is one frame as since hands it to a reader: its ring
// sequence number, kind and marshalled JSON body.
type streamEvent struct {
	seq  uint64
	kind string
	data []byte
}

// ringEntry is one buffered frame. A window frame is kept as its
// sample and marshalled only when since hands it to a reader; its seq
// and drop stamp follow from its place in the ring. Any other frame is
// marshalled at append, under the ring lock, and kept whole.
type ringEntry struct {
	sample windowSample
	frame  *streamEvent // nil for a window sample
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

// windowSample is what a ring keeps of a window frame: the measurement
// (80 B) and the job whose identity the frame carries, about a quarter
// of the marshalled frame it stands for. It stores no drop stamp: the
// ring derives it from the frame's seq (see stamp).
type windowSample struct {
	job   *Job
	stats experiments.WindowStats
}

// setDropped makes a sample a framePayload; its stamp is not stored.
func (*windowSample) setDropped(uint64) {}

// marshal is the frame body the sample stands for, stamped with
// dropped. It cannot fail: push refused non-finite samples, and nothing
// else in a WindowEvent can.
func (w *windowSample) marshal(dropped uint64) []byte {
	data, _ := json.Marshal(WindowEvent{
		frameMeta:   frameMeta{Dropped: dropped},
		JobID:       w.job.ID,
		Label:       w.job.label,
		Pair:        w.job.pair,
		WindowStats: w.stats,
	})
	return data
}

// finite reports whether json.Marshal would accept the sample: NaN and
// ±Inf are the only values in a WindowEvent it refuses.
func (w *windowSample) finite() bool {
	ws := &w.stats
	for _, f := range [...]float64{ws.ThroughputBitsPerCycle, ws.LatencyP50Cycles, ws.LatencyP99Cycles, ws.WavelengthsOn, ws.PowerW} {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return false
		}
	}
	return true
}

// JobEndEvent is the body of a job feed's terminal "end" frame. Every
// feed ends with one, whatever path the job took — simulated, cache
// hit, coalesced follower, failed or cancelled — so a
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
	buf      []ringEntry // grows by append up to capacity, ring-indexed once full
	capacity int         // bound on len(buf)
	head     int         // index of the oldest buffered event (0 until full)
	nextSeq  uint64      // next sequence number (first event gets 1)
	closed   bool
	notify   chan struct{} // closed+replaced on every append/close
}

// newEventRing returns an empty ring bounded at capacity frames. Storage
// is not reserved up front: most rings (coalesced and failed jobs) only
// ever hold their one end frame.
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
// whether an old frame was evicted to make room. Never blocks. A
// *windowSample body is a window frame whatever the kind. A nil ring (a
// job constructed without a feed) swallows the frame.
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

// push stamps and stores one frame; callers hold mu. Nothing is ever
// removed except by eviction, so every slot of buf is live and the
// buffered seqs are consecutive: the ring appends until it reaches
// capacity and from then on overwrites the oldest frame in place.
func (r *eventRing) push(kind string, body framePayload) (appended, evicted bool) {
	var e ringEntry
	if w, ok := body.(*windowSample); ok {
		if !w.finite() {
			// Refused here as its marshalled frame would have been.
			return false, false
		}
		e.sample = *w
	} else {
		body.setDropped(r.stamp(r.nextSeq))
		data, err := json.Marshal(body)
		if err != nil {
			// An unmarshalable frame is worth neither a seq gap nor an
			// eviction.
			return false, false
		}
		e.frame = &streamEvent{seq: r.nextSeq, kind: kind, data: data}
	}
	evicted = len(r.buf) == r.capacity
	if evicted {
		r.buf[r.head] = e
		r.head = (r.head + 1) % len(r.buf)
	} else {
		r.buf = append(r.buf, e)
	}
	r.nextSeq++
	close(r.notify)
	r.notify = make(chan struct{})
	return true, evicted
}

// stamp is the drop counter frame seq carries: every append beyond the
// first capacity frames evicts exactly one, so when frame seq was
// appended the ring had discarded seq-capacity frames, if any.
func (r *eventRing) stamp(seq uint64) uint64 {
	return seq - min(seq, uint64(r.capacity))
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
	if cap(r.buf) > len(r.buf) {
		// Sealed: drop the slack append growth left behind.
		r.buf = append(make([]ringEntry, 0, len(r.buf)), r.buf...)
	}
	return ok
}

// since returns the buffered events with seq > after, whether the ring
// is sealed, and a channel that closes on the next append — the
// reader's park signal. Buffered seqs are consecutive, so the first
// newer frame is found by index, not by a scan. The entries are copied
// under the lock and window samples marshalled after it is released,
// so an append never waits behind a reader's JSON. A nil ring reads as
// empty and sealed.
func (r *eventRing) since(after uint64) (evs []streamEvent, closed bool, wait <-chan struct{}) {
	if r == nil {
		return nil, true, nil
	}
	r.mu.Lock()
	oldest := r.nextSeq - uint64(len(r.buf))
	skip := 0
	if after >= oldest {
		skip = int(min(after-oldest+1, uint64(len(r.buf))))
	}
	entries := make([]ringEntry, len(r.buf)-skip)
	for i := range entries {
		entries[i] = r.buf[(r.head+skip+i)%len(r.buf)]
	}
	closed, wait = r.closed, r.notify
	r.mu.Unlock()

	if len(entries) == 0 {
		return nil, closed, wait
	}
	first := oldest + uint64(skip)
	evs = make([]streamEvent, len(entries))
	for i, e := range entries {
		if e.frame != nil {
			evs[i] = *e.frame
			continue
		}
		seq := first + uint64(i)
		evs[i] = streamEvent{seq: seq, kind: eventKindWindow, data: e.sample.marshal(r.stamp(seq))}
	}
	return evs, closed, wait
}

// stats snapshots the ring's lifetime accounting for tests/metrics.
func (r *eventRing) stats() (appended, dropped uint64, closed bool) {
	if r == nil {
		return 0, 0, true
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.nextSeq - 1, r.stamp(r.nextSeq - 1), r.closed
}
