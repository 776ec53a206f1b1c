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

// runJob drives one claimed job to terminal: it runs the job's
// simulation, publishes the result to the cache layers and settles the
// job. A run that finished settles the job done whatever its context
// says by then.
func (s *Server) runJob(job *Job) {
	if !job.markRunning() {
		// Cancelled while queued; already settled.
		return
	}
	s.metrics.jobStarted()
	defer s.metrics.workerIdle()

	spec := &job.exec.spec
	ctx := job.exec.ctx
	if spec.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, spec.timeout)
		defer cancel()
	}
	opts := spec.Options()
	opts.OnWindow = func(ws experiments.WindowStats) { s.emitWindow(job, ws) }
	start := time.Now()
	res, err := experiments.Run(ctx, spec.Point, opts)
	o := ranOutcome(err, spec.timeout)
	o.elapsed = time.Since(start)
	if err == nil {
		sum := experiments.Summarize(res)
		o.result = &sum
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
