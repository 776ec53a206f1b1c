package server

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/experiments"
)

// run executes the spec's simulation under ctx. This is the only place
// pearld runs a single simulation (runReplicated is the other, for seed
// fans). onWindow (may be nil) observes each reservation window live;
// it never affects the result.
func (s jobSpec) run(ctx context.Context, onWindow func(experiments.WindowStats)) (experiments.Result, error) {
	opts := s.Options()
	opts.OnWindow = onWindow
	// nil unless this is a photonic ML run the canary learns from.
	opts.OnWindowSample = s.canarySample
	return experiments.Run(ctx, s.Point, opts)
}

// worker drains the queue until it is closed; each claimed job runs to
// a terminal state before the next is picked up. Which job comes next
// is the fair-share scheduler's call, not arrival order.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		job, ok := s.reg.dequeue()
		if !ok {
			return
		}
		s.runJob(job)
	}
}

// runJob drives one job from claimed to terminal, keeping the metrics
// and result cache consistent with the observed outcome.
func (s *Server) runJob(job *Job) {
	if len(job.exec.crew) > 0 {
		// A replica carrier: one lockstep run settles its whole crew.
		s.runReplicatedJob(job)
		return
	}
	if !job.markRunning() {
		// Cancelled while queued; already settled.
		return
	}
	s.metrics.jobStarted()
	defer s.metrics.workerIdle()

	ctx := job.exec.ctx
	if job.exec.spec.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, job.exec.spec.timeout)
		defer cancel()
	}
	start := time.Now()
	res, err := job.exec.spec.run(ctx, func(ws experiments.WindowStats) { s.emitWindow(job, ws) })
	o := ranOutcome(err, job.exec.spec.timeout)
	o.elapsed = time.Since(start)
	if err == nil {
		o.result = newJobResult(res)
		// Publish to the cache layers BEFORE settling: settle fires the
		// flight-table removal, and any duplicate admitted after that
		// must find the result in the cache (exactly-once invariant).
		s.store(job.key, o.result)
	}
	s.settle(job, o)
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
