// Benchmark harness: one benchmark per table and figure from the paper's
// evaluation section, plus ablation benches for the design choices
// DESIGN.md calls out. Each benchmark regenerates its artifact and
// reports the headline numbers as custom metrics, so
//
//	go test -bench=. -benchmem
//
// reproduces the entire evaluation. Benchmarks run at the Quick scale (4
// of the 16 test pairs, shortened runs); use cmd/pearlbench -full for the
// paper-scale sweep.
package pearl

import (
	"sync"
	"testing"

	"repro/internal/experiments"
	"repro/internal/models"
)

var (
	modelsOnce sync.Once
	trained    []*models.Artifact
	trainErr   error
)

// benchTable times one evaluation table. Every iteration builds a fresh
// Quick suite, so it simulates each of its runs instead of reading
// results a shared suite kept from an earlier iteration or benchmark;
// the suites share the RW500/RW1000/RW2000 models, trained once outside
// the timer. report sees the first iteration's table.
func benchTable(b *testing.B, table func(*experiments.Suite) (experiments.Table, error), report func(experiments.Table)) {
	modelsOnce.Do(func() {
		for _, window := range []int{500, 1000, 2000} {
			m, err := experiments.Train(window, experiments.Quick())
			if err != nil {
				trainErr = err
				return
			}
			trained = append(trained, m)
		}
	})
	if trainErr != nil {
		b.Fatal(trainErr)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite(experiments.Quick())
		for _, m := range trained {
			s.SetModel(m)
		}
		tbl, err := table(s)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			report(tbl)
		}
	}
}

func reportRows(b *testing.B, tbl experiments.Table, column string) {
	b.Helper()
	col := -1
	for i, c := range tbl.Columns {
		if c == column {
			col = i
		}
	}
	if col < 0 {
		b.Fatalf("column %q missing in %s", column, tbl.Title)
	}
	for _, r := range tbl.Rows {
		b.ReportMetric(r.Values[col], sanitize(r.Label))
	}
}

// sanitize turns a row label into a metric unit token.
func sanitize(label string) string {
	out := make([]rune, 0, len(label))
	for _, r := range label {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			out = append(out, r)
		case r == ' ', r == '-', r == '/', r == '(', r == ')', r == '%', r == '.', r == '+':
			out = append(out, '_')
		}
	}
	return string(out)
}

func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl := experiments.TableI()
		if len(tbl.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTableII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl := experiments.TableIIFig()
		if v, ok := tbl.Value("chip total", "area"); !ok || v <= 0 {
			b.Fatal("bad chip total")
		}
	}
}

func BenchmarkTableV(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl := experiments.TableV()
		if v, ok := tbl.Value("laser power 64WL (W)", "value"); !ok || v != 1.16 {
			b.Fatal("bad laser power")
		}
	}
}

func BenchmarkFigure4(b *testing.B) {
	benchTable(b, (*experiments.Suite).Figure4, func(tbl experiments.Table) {
		// Mean CPU share across pairs.
		var sum float64
		for _, r := range tbl.Rows {
			sum += r.Values[0]
		}
		b.ReportMetric(sum/float64(len(tbl.Rows)), "meanCPUshare_pct")
	})
}

// rows reports every row's value in column.
func rows(b *testing.B, column string) func(experiments.Table) {
	return func(tbl experiments.Table) { reportRows(b, tbl, column) }
}

func BenchmarkFigure5(b *testing.B) {
	benchTable(b, (*experiments.Suite).Figure5, rows(b, "64WL-eq"))
}

func BenchmarkFigure6(b *testing.B) {
	benchTable(b, (*experiments.Suite).Figure6, rows(b, "vs 64WL %"))
}

func BenchmarkFigure7(b *testing.B) {
	benchTable(b, (*experiments.Suite).Figure7, rows(b, "savings %"))
}

func BenchmarkFigure8(b *testing.B) {
	benchTable(b, (*experiments.Suite).Figure8, func(tbl experiments.Table) {
		for _, r := range tbl.Rows {
			// 64WL residency is the paper's headline number.
			b.ReportMetric(r.Values[4], sanitize(r.Label)+"_64WL_pct")
		}
	})
}

func BenchmarkFigure9(b *testing.B) {
	benchTable(b, (*experiments.Suite).Figure9, rows(b, "vs CMESH %"))
}

func BenchmarkFigure10(b *testing.B) {
	benchTable(b, (*experiments.Suite).Figure10, rows(b, "vs 64WL %"))
}

func BenchmarkFigure11(b *testing.B) {
	benchTable(b, (*experiments.Suite).Figure11, rows(b, "thr loss %"))
}

func BenchmarkNRMSE(b *testing.B) {
	benchTable(b, (*experiments.Suite).NRMSE, rows(b, "test"))
}

// --- Ablation benches (design choices from DESIGN.md) ---

func BenchmarkAblationBandwidthStep(b *testing.B) {
	benchTable(b, (*experiments.Suite).AblationBandwidthStep, rows(b, "throughput"))
}

func BenchmarkAblationDBABounds(b *testing.B) {
	benchTable(b, (*experiments.Suite).AblationDBABounds, rows(b, "CPU lat"))
}

func BenchmarkAblationThresholds(b *testing.B) {
	benchTable(b, (*experiments.Suite).AblationThresholds, rows(b, "laser W"))
}

func BenchmarkAblationWindowSweep(b *testing.B) {
	benchTable(b, (*experiments.Suite).AblationWindowSweep, rows(b, "laser W"))
}

func BenchmarkAblationFeatureSubset(b *testing.B) {
	benchTable(b, (*experiments.Suite).AblationFeatureSubset, rows(b, "val score"))
}

func BenchmarkAblationLabelChoice(b *testing.B) {
	benchTable(b, (*experiments.Suite).AblationLabelChoice, rows(b, "laser W"))
}

func BenchmarkExtensions(b *testing.B) {
	benchTable(b, (*experiments.Suite).Extensions, rows(b, "savings %"))
}

func BenchmarkThermalStudy(b *testing.B) {
	benchTable(b, (*experiments.Suite).ThermalStudy, rows(b, "net gated W"))
}
