package server

import "sync/atomic"

// Server-side replicated execution: a batch point with seeds: N expands
// into N member jobs — one per derived seed, each with its own
// content-addressed cache key — that the feeder coalesces back into ONE
// lockstep simulation per group. The carrier job that rides the queue
// is invisible to the API: members keep their individual lifecycles
// (cache hits, singleflight coalescing, cancellation, per-seed cache
// entries), the carrier only owns the worker slot and the shared run.

// maxSeedsPerPoint bounds one batch point's seed fan-out.
const maxSeedsPerPoint = 32

// replicaGroup ties the member jobs of one seeds:N point together. key
// is the base spec's content hash — the shard router hashes it so every
// member of a group lands on the same peer.
type replicaGroup struct {
	base jobSpec
	key  string
}

func newReplicaGroup(base jobSpec) *replicaGroup {
	return &replicaGroup{base: base, key: base.Key()}
}

// shardKey is the hash the shard router partitions the job by: the
// replica group's key for grouped members (keeping a group on one
// peer), the job's own cache key otherwise.
func (j *Job) shardKey() string {
	if j.group != nil {
		return j.group.key
	}
	return j.key
}

// coalesceReplicaGroups rewrites a deferred job list so that members of
// the same replica group ride the queue as ONE carrier job. Members
// that already settled elsewhere (cache hits, singleflight followers)
// never reach this list, so the crew is exactly the members that still
// need simulating; a group reduced to one member stays a plain job.
// Order is preserved by the first member's position.
func (s *Server) coalesceReplicaGroups(deferred []*Job) []*Job {
	carriers := make(map[*replicaGroup]*Job)
	out := make([]*Job, 0, len(deferred))
	for _, job := range deferred {
		if job.group == nil {
			out = append(out, job)
			continue
		}
		if c, ok := carriers[job.group]; ok {
			c.exec.crew = append(c.exec.crew, job)
			continue
		}
		// Named after its first member, not numbered: job ids stay one
		// sequence with no gaps, which is what tells retired from never
		// issued (see retention.go).
		c := newJob("replica-"+job.ID, job.group.base, s.rootCtx)
		c.setTenant(job.tenant, job.token, job.weight)
		c.exec.crew = []*Job{job}
		carriers[job.group] = c
		out = append(out, c)
	}
	// Only carriers built above have a crew; deferred member jobs never
	// do.
	for i, job := range out {
		switch {
		case len(job.exec.crew) == 0:
		case len(job.exec.crew) == 1:
			// Alone after cache/coalesce attrition: run it as the plain
			// member job it is.
			out[i] = job.exec.crew[0]
		default:
			s.armCarrier(job)
		}
	}
	return out
}

// armCarrier wires the carrier's lifecycle to its crew: when every
// member reaches a terminal state on its own (batch cancellation,
// drain), a still-queued carrier cancels itself rather than waste a
// worker slot; and a carrier cancelled before running (queue closed
// under it) releases any members still pending.
func (s *Server) armCarrier(carrier *Job) {
	remaining := int64(len(carrier.exec.crew))
	for _, m := range carrier.exec.crew {
		m.subscribe(func(*Job) {
			if atomic.AddInt64(&remaining, -1) == 0 {
				s.settle(carrier, withdrawn)
			}
		})
	}
	carrier.subscribe(func(c *Job) {
		if state, _, _ := c.outcome(); state != StateCancelled {
			return
		}
		for _, m := range c.exec.crew {
			s.settle(m, withdrawn)
		}
	})
}
