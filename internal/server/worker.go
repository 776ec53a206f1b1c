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
	opts := s.options()
	opts.OnWindow = onWindow
	// nil unless this is a photonic ML run the canary learns from.
	opts.OnWindowSample = s.canarySample
	return experiments.Run(ctx, s.point(), opts)
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
		// Cancelled while queued; already counted and terminal.
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
	elapsed := time.Since(start)

	switch {
	case err == nil:
		payload := newJobResult(res)
		// Publish to the cache layers BEFORE finishing: finish fires the
		// flight-table removal, and any duplicate admitted after that
		// must find the result in the cache (exactly-once invariant).
		s.store(job.key, payload)
		job.finish(StateDone, payload, nil)
		s.metrics.jobCompleted(job.tenant, elapsed,
			uint64(job.exec.spec.warmup)+uint64(job.exec.spec.measure))
		s.metrics.controllerRun(job.tenant, job.exec.spec.ctrlName, payload.StateResidency, job.exec.spec.measure)
	case errors.Is(err, context.Canceled):
		job.finish(StateCancelled, nil, errors.New("cancelled while running"))
		s.metrics.jobCancelled(job.tenant)
	case errors.Is(err, context.DeadlineExceeded):
		job.finish(StateFailed, nil, fmt.Errorf("timed out after %v", job.exec.spec.timeout))
		s.metrics.jobFailed(job.tenant)
	default:
		job.finish(StateFailed, nil, err)
		s.metrics.jobFailed(job.tenant)
	}
}
