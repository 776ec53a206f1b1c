package experiments

import (
	"context"
	"testing"

	"repro/internal/config"
	"repro/internal/traffic"
)

// A cancellation landing DURING the final cycle chunk — after the last
// top-of-loop context check, before the return — races a fully computed
// result. The run completed every requested cycle, so the caller must
// get the result, not a spurious context error. These tests pin that on
// the one run loop by firing cancel() from inside the last cycle (the
// OnWindow hook of the window that closes there, or a simulator event):
// the chunk loop never sees the cancellation until all cycles are done.

func TestRunCyclesCompletedRunSurvivesLateCancel(t *testing.T) {
	p := Point{Config: config.DynRW(500), Pair: traffic.TestPairs()[0]}
	opts := tiny()
	// Three full windows and one chunk boundary inside the measurement
	// phase; the third window closes on the run's final cycle.
	opts.WarmupCycles, opts.MeasureCycles = 500, 1500
	want, err := Run(context.Background(), p, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Run, and a one-seed fan, which must keep the rule too.
	for _, run := range []struct {
		name string
		run  func(ctx context.Context, o Options) (Result, error)
	}{
		{"Run", func(ctx context.Context, o Options) (Result, error) { return Run(ctx, p, o) }},
		{"RunSeeds", func(ctx context.Context, o Options) (Result, error) {
			res, err := RunSeeds(ctx, p, o, []uint64{o.Seed})
			if err != nil {
				return Result{}, err
			}
			return res[0], nil
		}},
	} {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		windows := 0
		o := opts
		o.OnWindow = func(WindowStats) {
			if windows++; windows == 3 {
				cancel()
			}
		}
		res, err := run.run(ctx, o)
		if err != nil {
			t.Fatalf("%s returned %v after completing every cycle", run.name, err)
		}
		if ctx.Err() == nil {
			t.Fatal("the hook never cancelled: the test did not exercise the race")
		}
		if res.Metrics == nil || res.Metrics.MeasuredCycles != opts.MeasureCycles {
			t.Fatalf("%s: result not finalised over %d measured cycles: %+v", run.name, opts.MeasureCycles, res.Metrics)
		}
		sameResult(t, run.name+" late cancel", res, want)
	}
}

func TestRunCyclesCancelledMidRunStillErrors(t *testing.T) {
	// Sanity: the fix must not weaken real cancellation — a cancel with
	// chunks still to run aborts with the context error.
	p := Point{Config: config.DynRW(500), Pair: traffic.TestPairs()[0]}
	opts := tiny()
	opts.WarmupCycles, opts.MeasureCycles = 0, 10*runCtxChunk

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, p, opts); err != context.Canceled {
		t.Fatalf("Run under a cancelled context = %v, want context.Canceled", err)
	}

	// Cancelled from inside the first window, with nine chunks to go.
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	windows := 0
	opts.OnWindow = func(WindowStats) {
		windows++
		cancel()
	}
	if _, err := Run(ctx, p, opts); err != context.Canceled {
		t.Fatalf("Run cancelled mid-run = %v, want context.Canceled", err)
	}
	if chunkWindows := runCtxChunk/500 + 1; windows > chunkWindows {
		t.Fatalf("run went on for %d windows after the cancel; the chunk in flight holds at most %d", windows, chunkWindows)
	}
}
