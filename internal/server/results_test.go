package server

import (
	"context"
	"testing"
	"time"
)

// newJob builds a runnable job outside the request path: identity plus
// execution state.
func newJob(id string, spec jobSpec, parent context.Context) *Job {
	j := newRecord(id, &spec)
	j.arm(spec, parent)
	return j
}

// doneJob fabricates a finished point: spec resolved through the real
// request path, result injected directly.
func doneJob(t *testing.T, s *Server, id, body string, res *JobResult) *Job {
	t.Helper()
	j := newJob(id, resolveSpec(t, s, body), s.rootCtx)
	s.settle(j, outcome{state: StateDone, result: res})
	return j
}

// resultWith fills the metrics seriesRows averages.
func resultWith(throughput, gbps, latency, power, epb float64) *JobResult {
	return &JobResult{
		ThroughputBitsPerCycle: throughput,
		ThroughputGbps:         gbps,
		MeanLatencyCycles:      latency,
		AvgLaserPowerW:         power,
		EnergyPerBitPJ:         epb,
	}
}

const cmeshJob = `{"backend":"cmesh","workload":{"cpu":"fmm","gpu":"DCT"},"warmup_cycles":200,"measure_cycles":2000}`

// TestSeriesRowsMeans pins the figure-shaped reduction: group by
// configuration label in first-seen order, average every metric over
// the finished points only.
func TestSeriesRowsMeans(t *testing.T) {
	s := newBareServer(t, Options{Workers: 1})
	jobs := []*Job{
		doneJob(t, s, "job-000001", quickJob, resultWith(10, 1, 100, 2, 4)),
		doneJob(t, s, "job-000002", cmeshJob, resultWith(5, 0.5, 300, 0, 20)),
		doneJob(t, s, "job-000003", quickJob, resultWith(30, 3, 200, 4, 8)),
	}
	rows := seriesRows(jobs)
	if len(rows) != 2 {
		t.Fatalf("%d series rows, want 2 (one per label)", len(rows))
	}
	pearl, cmesh := rows[0], rows[1]
	if pearl.Label != "PEARL-Dyn(64WL)" || cmesh.Label != "CMESH" {
		t.Fatalf("row order %q, %q; want first-seen label order", pearl.Label, cmesh.Label)
	}
	if pearl.Points != 2 || pearl.Expected != 2 {
		t.Fatalf("pearl row counts %d/%d, want 2/2", pearl.Points, pearl.Expected)
	}
	if pearl.ThroughputBitsPerCycle != 20 || pearl.ThroughputGbps != 2 ||
		pearl.MeanLatencyCycles != 150 || pearl.AvgLaserPowerW != 3 || pearl.EnergyPerBitPJ != 6 {
		t.Fatalf("pearl means not averaged over its two points: %+v", pearl)
	}
	if cmesh.Points != 1 || cmesh.ThroughputBitsPerCycle != 5 || cmesh.EnergyPerBitPJ != 20 {
		t.Fatalf("cmesh row: %+v", cmesh)
	}
}

// TestSeriesRowsPartial: unfinished points count toward Expected but
// contribute nothing to the means — a snapshot mid-batch is honest
// about its coverage instead of averaging in zeros.
func TestSeriesRowsPartial(t *testing.T) {
	s := newBareServer(t, Options{Workers: 1})
	pending := newJob("job-000002", resolveSpec(t, s, quickJob), s.rootCtx)
	jobs := []*Job{
		doneJob(t, s, "job-000001", quickJob, resultWith(10, 1, 100, 2, 4)),
		pending,
	}
	rows := seriesRows(jobs)
	if len(rows) != 1 {
		t.Fatalf("%d rows, want 1", len(rows))
	}
	row := rows[0]
	if row.Points != 1 || row.Expected != 2 {
		t.Fatalf("partial row counts %d/%d, want 1/2", row.Points, row.Expected)
	}
	if row.ThroughputBitsPerCycle != 10 {
		t.Fatalf("partial mean %v diluted by the pending point, want 10", row.ThroughputBitsPerCycle)
	}
	// An all-pending label yields a zero row, not a division by zero.
	if rows := seriesRows([]*Job{pending}); rows[0].Points != 0 || rows[0].ThroughputBitsPerCycle != 0 {
		t.Fatalf("all-pending row: %+v", rows[0])
	}
}

// TestBatchResultsAssembly covers the results() payload around the
// shared reduction: completeness flag, per-point outcomes, and
// skipped (ML-unservable) sweep points riding along.
func TestBatchResultsAssembly(t *testing.T) {
	s := newBareServer(t, Options{Workers: 1})
	b := &Batch{
		ID:        "batch-000001",
		submitted: time.Now(),
		events:    newEventRing(8),
		skipped: []SkippedPoint{
			{Label: "PEARL-ML(RW500)", Pair: "fmm+DCT", Reason: "no model for rw500"},
		},
	}
	b.addJob(doneJob(t, s, "job-000001", quickJob, resultWith(10, 1, 100, 2, 4)))
	pending := newJob("job-000002", resolveSpec(t, s, cmeshJob), s.rootCtx)
	b.addJob(pending)

	partial := b.results()
	if partial.Complete {
		t.Fatal("half-done batch reported Complete")
	}
	if len(partial.Series) != 2 || len(partial.Points) != 2 {
		t.Fatalf("partial results shape: %d series, %d points", len(partial.Series), len(partial.Points))
	}
	if len(partial.Skipped) != 1 || partial.Skipped[0].Reason != "no model for rw500" {
		t.Fatalf("skipped points not carried through: %+v", partial.Skipped)
	}
	if partial.Points[1].State != string(StatePending) || partial.Points[1].Result != nil {
		t.Fatalf("pending point reported %+v", partial.Points[1])
	}

	s.settle(pending, outcome{state: StateDone, result: resultWith(5, 0.5, 300, 0, 20)})
	full := b.results()
	if !full.Complete || full.State != "done" {
		t.Fatalf("finished batch reported complete=%v state=%q", full.Complete, full.State)
	}
	if full.Points[1].Result == nil || full.Points[1].Result.EnergyPerBitPJ != 20 {
		t.Fatalf("done point payload missing: %+v", full.Points[1])
	}
	// The incremental reduction the progress frames use is the same
	// function, so a final-frame snapshot equals the endpoint's series.
	if got, want := seriesRows(b.snapshotJobs()), full.Series; len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("seriesRows snapshot diverges from results():\n%+v\nvs\n%+v", got, want)
	}
}
