package pearl

import (
	"context"
	"math"
	"testing"

	"repro/internal/config"
	"repro/internal/experiments"
	"repro/internal/traffic"
)

// Golden regression values for the frozen calibration (seed 2018,
// fluidanimate+DCT, 1000 warmup + 10000 measured cycles). The whole stack
// is deterministic, so these must match bit-for-bit run over run; any
// intentional change to the traffic model, router microarchitecture or
// power accounting must update them consciously.
func goldenOptions() experiments.Options {
	opts := experiments.Quick()
	opts.MeasureCycles = 10000
	opts.WarmupCycles = 1000
	return opts
}

func goldenPoint(cfg config.Config) experiments.Point {
	return experiments.Point{Backend: "pearl", Config: cfg, Pair: traffic.TestPairs()[0]}
}

func TestGoldenPEARLDyn(t *testing.T) {
	res, err := experiments.Run(context.Background(), goldenPoint(config.PEARLDyn()), goldenOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Metrics.Delivered.TotalBits(); got != 8566400 {
		t.Errorf("delivered bits = %d, golden 8566400", got)
	}
	if got := res.Account.AverageLaserPowerW(); math.Abs(got-1.16) > 1e-9 {
		t.Errorf("laser = %v, golden 1.16", got)
	}
	if got := res.Metrics.Latency.Mean(); math.Abs(got-86.6041527471) > 1e-9 {
		t.Errorf("latency = %.10f, golden 86.6041527471", got)
	}
}

func TestGoldenDynRW500(t *testing.T) {
	res, err := experiments.Run(context.Background(), goldenPoint(config.DynRW(500)), goldenOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Metrics.Delivered.TotalBits(); got != 9158528 {
		t.Errorf("delivered bits = %d, golden 9158528", got)
	}
	if got := res.Account.AverageLaserPowerW(); math.Abs(got-0.7942302674) > 1e-9 {
		t.Errorf("laser = %.10f, golden 0.7942302674", got)
	}
	if got := res.Metrics.Latency.Mean(); math.Abs(got-215.9726978920) > 1e-9 {
		t.Errorf("latency = %.10f, golden 215.9726978920", got)
	}
}

// TestGoldenReplicaZero pins the replicated engine's byte-identity
// contract: replica 0 of a multi-seed lockstep run carries the base
// seed unchanged and must reproduce the single-run golden values
// exactly — same numbers, same cache identity.
func TestGoldenReplicaZero(t *testing.T) {
	p, opts := goldenPoint(config.PEARLDyn()), goldenOptions()
	seeds := experiments.ReplicaSeeds(opts.Seed, p.Name(), p.Pair.Name(), 3)
	results, err := experiments.RunSeeds(context.Background(), p, opts, seeds)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d results, want 3", len(results))
	}
	res := results[0]
	if got := res.Metrics.Delivered.TotalBits(); got != 8566400 {
		t.Errorf("replica 0 delivered bits = %d, golden 8566400", got)
	}
	if got := res.Account.AverageLaserPowerW(); math.Abs(got-1.16) > 1e-9 {
		t.Errorf("replica 0 laser = %v, golden 1.16", got)
	}
	if got := res.Metrics.Latency.Mean(); math.Abs(got-86.6041527471) > 1e-9 {
		t.Errorf("replica 0 latency = %.10f, golden 86.6041527471", got)
	}
}

func TestGoldenCMESH(t *testing.T) {
	p := experiments.Point{Backend: "cmesh", Config: config.Default(), LinkScale: 1, Pair: traffic.TestPairs()[0]}
	res, err := experiments.Run(context.Background(), p, goldenOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Metrics.Delivered.TotalBits(); got != 6562944 {
		t.Errorf("delivered bits = %d, golden 6562944", got)
	}
	if got := res.Metrics.Latency.Mean(); math.Abs(got-279.2912551508) > 1e-9 {
		t.Errorf("latency = %.10f, golden 279.2912551508", got)
	}
}
