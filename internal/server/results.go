package server

import (
	"net/http"
	"sort"
	"time"

	"repro/internal/stats"
)

// PointResult is one batch point in the results payload: the figure
// row label it contributes to, its outcome, and (when done) the full
// measurement.
type PointResult struct {
	Label  string `json:"label"`
	Pair   string `json:"pair"`
	State  string `json:"state"`
	Cached bool   `json:"cached"`
	// Model is the content hash of the artifact that served a PowerML
	// point.
	Model  string     `json:"model,omitempty"`
	Error  string     `json:"error,omitempty"`
	Result *JobResult `json:"result,omitempty"`
}

// SeriesRow aggregates a batch's finished points by configuration
// label — the figure-shaped view: one row per configuration, metrics
// averaged over its workload pairs (matching how the paper's figures
// reduce the 16-pair sweeps).
type SeriesRow struct {
	Label string `json:"label"`
	// Points counts finished pairs folded into the means; Expected is
	// how many the batch scheduled for this label.
	Points   int `json:"points"`
	Expected int `json:"expected"`
	// Means over the finished points.
	ThroughputBitsPerCycle float64 `json:"throughput_bits_per_cycle"`
	ThroughputGbps         float64 `json:"throughput_gbps"`
	MeanLatencyCycles      float64 `json:"mean_latency_cycles"`
	AvgLaserPowerW         float64 `json:"avg_laser_power_w"`
	EnergyPerBitPJ         float64 `json:"energy_per_bit_pj"`
	// Dispersion across the finished points: standard error of the mean
	// and its 95% confidence half-width. Only meaningful — and only
	// emitted — with two or more finished points, which a seeds:N batch
	// guarantees per label; a plain one-seed batch omits them.
	ThroughputStdErr   float64 `json:"throughput_stderr,omitempty"`
	ThroughputCI95     float64 `json:"throughput_ci95,omitempty"`
	LatencyStdErr      float64 `json:"latency_stderr,omitempty"`
	LatencyCI95        float64 `json:"latency_ci95,omitempty"`
	EnergyPerBitStdErr float64 `json:"energy_per_bit_stderr,omitempty"`
	EnergyPerBitCI95   float64 `json:"energy_per_bit_ci95,omitempty"`
}

// BatchResults is the GET /v1/batches/{id}/results payload.
type BatchResults struct {
	ID    string `json:"id"`
	State string `json:"state"`
	// Complete is true once every scheduled point is done (none failed
	// or cancelled) — the series means cover the whole batch.
	Complete    bool           `json:"complete"`
	SubmittedAt string         `json:"submitted_at"`
	Series      []SeriesRow    `json:"series"`
	Points      []PointResult  `json:"points"`
	Skipped     []SkippedPoint `json:"skipped,omitempty"`
}

// seriesRows is the figure-shaped reduction both the results endpoint
// and the batch event feed's incremental progress frames share: group
// the jobs by configuration label (first-seen order — for sweeps, the
// figure's row order) and average the finished points' metrics per
// label. Callable at any time; a partial batch yields partial means
// with Points < Expected alongside.
func seriesRows(jobs []*Job) []SeriesRow {
	type acc struct {
		row   SeriesRow
		order int
		// Welford accumulators for the dispersion columns; the means
		// stay plain sums so existing single-seed rows are bit-stable.
		tput, lat, epb stats.Welford
	}
	series := make(map[string]*acc)
	order := 0
	for _, j := range jobs {
		label := j.label
		a, ok := series[label]
		if !ok {
			a = &acc{row: SeriesRow{Label: label}, order: order}
			series[label] = a
			order++
		}
		a.row.Expected++
		if res, done := j.Result(); done {
			a.row.Points++
			a.row.ThroughputBitsPerCycle += res.ThroughputBitsPerCycle
			a.row.ThroughputGbps += res.ThroughputGbps
			a.row.MeanLatencyCycles += res.MeanLatencyCycles
			a.row.AvgLaserPowerW += res.AvgLaserPowerW
			a.row.EnergyPerBitPJ += res.EnergyPerBitPJ
			a.tput.Add(res.ThroughputBitsPerCycle)
			a.lat.Add(res.MeanLatencyCycles)
			a.epb.Add(res.EnergyPerBitPJ)
		}
	}
	rows := make([]*acc, 0, len(series))
	for _, a := range series {
		if n := float64(a.row.Points); n > 0 {
			a.row.ThroughputBitsPerCycle /= n
			a.row.ThroughputGbps /= n
			a.row.MeanLatencyCycles /= n
			a.row.AvgLaserPowerW /= n
			a.row.EnergyPerBitPJ /= n
		}
		if a.row.Points >= 2 {
			a.row.ThroughputStdErr = a.tput.StdErr()
			a.row.ThroughputCI95 = a.tput.CI95()
			a.row.LatencyStdErr = a.lat.StdErr()
			a.row.LatencyCI95 = a.lat.CI95()
			a.row.EnergyPerBitStdErr = a.epb.StdErr()
			a.row.EnergyPerBitCI95 = a.epb.CI95()
		}
		rows = append(rows, a)
	}
	sort.Slice(rows, func(i, k int) bool { return rows[i].order < rows[k].order })
	out := make([]SeriesRow, len(rows))
	for i, a := range rows {
		out[i] = a.row
	}
	return out
}

// results assembles the figure-shaped aggregation: per-point outcomes
// plus per-label means over whatever has finished so far. Callable at
// any time — a half-done batch reports partial means with the finished
// point counts alongside, so a client can tell a settled figure from a
// snapshot.
func (b *Batch) results() BatchResults {
	jobs := b.snapshotJobs()
	st := b.statusOf(jobs, false)
	out := BatchResults{
		ID:          b.ID,
		State:       st.State,
		Complete:    st.Done == st.Total,
		SubmittedAt: b.submitted.UTC().Format(time.RFC3339Nano),
		Series:      seriesRows(jobs),
		Points:      make([]PointResult, 0, len(jobs)),
		Skipped:     b.skipped,
	}
	for _, j := range jobs {
		js := j.Status()
		pr := PointResult{
			Label:  j.label,
			Pair:   js.Pair,
			State:  js.State,
			Cached: js.Cached,
			Model:  js.Model,
			Error:  js.Error,
		}
		if res, done := j.Result(); done {
			pr.Result = res
		}
		out.Points = append(out.Points, pr)
	}
	return out
}

// handleBatchResults is GET /v1/batches/{id}/results.
func (s *Server) handleBatchResults(w http.ResponseWriter, r *http.Request) {
	b, ok := s.batches.resolve(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, b.results())
}
