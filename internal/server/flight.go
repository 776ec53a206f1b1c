package server

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/tenant"
)

// flightTable coalesces concurrently in-flight jobs that share a cache
// key: the first submission becomes the leader and simulates; later
// identical submissions attach as followers and inherit the leader's
// outcome without re-executing. Combined with the result cache this
// gives exactly-once simulation per content hash no matter how many
// clients race on the same point.
type flightTable struct {
	mu       sync.Mutex
	inflight map[string]*Job
}

func newFlightTable() *flightTable {
	return &flightTable{inflight: make(map[string]*Job)}
}

// remove drops the leader for key, but only if it is still the mapped
// job — a later leader for the same key must not be evicted by a stale
// completion.
func (f *flightTable) remove(key string, leader *Job) {
	f.mu.Lock()
	if f.inflight[key] == leader {
		delete(f.inflight, key)
	}
	f.mu.Unlock()
}

// admission classifies how a resolved job entered the system.
type admission int

const (
	// admitCached: finished at submit straight from the result cache.
	admitCached admission = iota
	// admitCoalesced: attached as a follower of an identical in-flight
	// job.
	admitCoalesced
	// admitQueued: became a leader and entered the bounded queue.
	admitQueued
	// admitDeferred: became a leader but enqueueing was left to the
	// caller (batch feeders trickle points in as slots free up).
	admitDeferred
	// admitRejected: the bounded queue was full; the job failed.
	admitRejected
)

// admit routes a freshly built job through the cache and singleflight
// layers and registers it. A job the result cache already holds settles
// at once as a compact terminal record: it never gets spec, context,
// event ring or subscribers, its tenant slot is released here, and the
// "end" frame its feed consists of is counted now. Any other job is
// armed to run first. A batch member (b non-nil) joins b either way; its
// leader jobs are left for the batch feeder to enqueue.
func (s *Server) admit(job *Job, spec jobSpec, tn *tenant.Tenant, b *Batch) admission {
	if hit, disk, ok := s.lookup(job.key); ok {
		job.key = hit.key
		s.metrics.cacheHit(job.tenant, disk)
		s.settle(job, outcome{state: StateDone, result: hit.result, via: cached})
		tn.ReleaseSlot()
		s.metrics.eventEmitted(job.tenant, false)
		s.register(job, b)
		if b != nil {
			b.addJob(job)
		}
		return admitCached
	}
	s.armJob(job, spec, tn, b)
	s.register(job, b)
	if s.testHookAfterCacheMiss != nil {
		s.testHookAfterCacheMiss(job)
	}

	s.flight.mu.Lock()
	if leader, ok := s.flight.inflight[job.key]; ok {
		// Subscribe outside flight.mu: an already-terminal leader runs
		// the callback inline, and the resulting notify chain (batch
		// cancel-on-error cancelling sibling leaders) re-enters the
		// flight table.
		s.flight.mu.Unlock()
		s.metrics.cacheMissed(job.tenant)
		job.markFollower()
		s.metrics.jobCoalesced(job.tenant)
		leader.subscribe(func(l *Job) { s.settleFollower(job, l) })
		return admitCoalesced
	}
	// The leader may have completed between the cache lookup and taking
	// the lock; results are published to the cache stack before the
	// flight entry is removed, so re-checking here closes that window.
	// The recheck must consult the full stack, not just the memory LRU:
	// a leader's freshly published result may already have been evicted
	// from memory while the disk layer still holds it.
	if hit, disk, ok := s.lookup(job.key); ok {
		s.flight.mu.Unlock()
		s.metrics.cacheHit(job.tenant, disk)
		s.settle(job, outcome{state: StateDone, result: hit.result, via: cached})
		return admitCached
	}
	// Only now is the submission definitively a miss; counting it any
	// earlier double-books recheck hits as both a miss and a hit.
	s.metrics.cacheMissed(job.tenant)
	s.flight.inflight[job.key] = job
	s.flight.mu.Unlock()
	job.subscribe(func(*Job) { s.flight.remove(job.key, job) })

	if b != nil {
		return admitDeferred
	}
	if queued, _ := s.queue.enqueue(job); !queued {
		s.settle(job, outcome{state: StateFailed, err: fmt.Errorf("queue full (%d jobs)", s.opts.QueueDepth), via: rejected})
		return admitRejected
	}
	return admitQueued
}

// settleFollower resolves a coalesced follower from its leader's
// terminal outcome. Followers share the leader's fate: a cancelled or
// failed leader cancels/fails them too (duplicates are one unit of
// work by construction), and each follower counts in its own tenant.
func (s *Server) settleFollower(follower, leader *Job) {
	state, result, err := leader.outcome()
	o := outcome{state: state, via: coalesced}
	switch state {
	case StateDone:
		o.result = result
	case StateCancelled:
		o.err = fmt.Errorf("coalesced with %s, which was cancelled", leader.ID)
	default:
		if err == nil {
			err = errors.New("unknown failure")
		}
		o.state, o.err = StateFailed, fmt.Errorf("coalesced with %s, which failed: %w", leader.ID, err)
	}
	s.settle(follower, o)
}
