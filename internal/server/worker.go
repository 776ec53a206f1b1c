package server

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/experiments"
)

// worker drains the queue until it is closed; each claimed job runs to
// a terminal state before the next is picked up. Which job comes next
// is the fair-share scheduler's call, not arrival order.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		job, ok := s.queue.dequeue()
		if !ok {
			return
		}
		s.runJob(job)
	}
}

// runJob drives one claimed job to terminal as a crew: the job alone,
// or a replica carrier's members. It runs one lockstep simulation over
// the seeds of the crew's live members, whose per-seed results settle
// each of them and publish each one's cache entry. Members cancelled
// before the run starts are skipped; a member cancelled mid-run still
// gets its result cached (the simulation ran) but finishes cancelled. A
// plain job is not a member: whatever its context says, a run that
// finished settles it done.
func (s *Server) runJob(job *Job) {
	if !job.markRunning() {
		// Cancelled while queued; already settled.
		return
	}
	s.metrics.jobStarted()
	defer s.metrics.workerIdle()

	crew := job.exec.crew
	live := []*Job{job}
	if len(crew) > 0 {
		live = nil
		for _, m := range crew {
			if m.markRunning() {
				live = append(live, m)
			}
		}
		if len(live) == 0 {
			s.settle(job, outcome{state: StateCancelled, err: errors.New("every replica member settled before the run started")})
			return
		}
	}
	seeds := make([]uint64, len(live))
	for i, m := range live {
		seeds[i] = m.exec.spec.Seed
	}

	spec := &job.exec.spec
	ctx := job.exec.ctx
	// A crew simulates len(live) seeds' worth of cycles, so its
	// wall-clock budget scales with it.
	timeout := spec.timeout * time.Duration(len(live))
	if spec.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	opts := spec.Options()
	opts.OnWindow = func(ws experiments.WindowStats) { s.emitWindow(live[0], ws) }
	// nil unless this is a photonic ML run the canary learns from.
	opts.OnWindowSample = spec.canarySample
	start := time.Now()
	results, err := experiments.RunSeeds(ctx, spec.Point, opts, seeds)
	o := ranOutcome(err, timeout)
	o.elapsed = time.Since(start) / time.Duration(len(live))
	if err == nil && len(crew) > 0 {
		s.metrics.replicaGroupDone(len(live))
	}
	for i, m := range live {
		mo := o
		if err == nil {
			mo.result = newJobResult(results[i])
			// Publish to the cache layers BEFORE settling: settle fires the
			// flight-table removal, and any duplicate admitted after that
			// must find the result in the cache (exactly-once invariant).
			s.store(m.key, mo.result)
			if m != job && m.exec.ctx.Err() != nil {
				mo = outcome{state: StateCancelled, err: errCancelledRunning}
			}
		}
		s.settle(m, mo)
	}
	if len(crew) > 0 {
		s.settle(job, outcome{state: o.state, err: o.err})
	}
}

// ranOutcome classifies how a local run ended; timeout is the budget a
// deadline error reports. A done outcome's result is the caller's to
// fill in.
func ranOutcome(err error, timeout time.Duration) outcome {
	switch {
	case err == nil:
		return outcome{state: StateDone}
	case errors.Is(err, context.Canceled):
		return outcome{state: StateCancelled, err: errCancelledRunning}
	case errors.Is(err, context.DeadlineExceeded):
		return outcome{state: StateFailed, err: fmt.Errorf("timed out after %v", timeout)}
	}
	return outcome{state: StateFailed, err: err}
}
