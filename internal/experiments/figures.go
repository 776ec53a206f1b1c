package experiments

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/config"
	"repro/internal/models"
	"repro/internal/photonic"
)

// Table is a generic figure/table result: ordered columns, one row per
// configuration or benchmark pair.
type Table struct {
	Title   string
	Columns []string
	Rows    []Row
	// Notes carries the paper's headline claim for eyeballing the shape.
	Notes string
}

// Row is one labelled result line.
type Row struct {
	Label  string
	Values []float64
}

// String renders the table as aligned text.
func (t Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	fmt.Fprintf(&b, "%-28s", "")
	for _, c := range t.Columns {
		fmt.Fprintf(&b, "%16s", c)
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-28s", r.Label)
		for _, v := range r.Values {
			fmt.Fprintf(&b, "%16.4f", v)
		}
		b.WriteByte('\n')
	}
	if t.Notes != "" {
		fmt.Fprintf(&b, "note: %s\n", t.Notes)
	}
	return b.String()
}

// Value looks up a cell by row label and column name.
func (t Table) Value(rowLabel, column string) (float64, bool) {
	col := -1
	for i, c := range t.Columns {
		if c == column {
			col = i
			break
		}
	}
	if col < 0 {
		return 0, false
	}
	for _, r := range t.Rows {
		if r.Label == rowLabel && col < len(r.Values) {
			return r.Values[col], true
		}
	}
	return 0, false
}

// Suite caches trained ML model artifacts and shares Options across
// the figure drivers so one invocation reproduces the whole evaluation
// coherently. Pre-trained artifacts (from pearltrain files or a pearld
// registry) can be injected with SetModel; windows without one are
// trained on demand.
type Suite struct {
	Opts   Options
	models map[int]*models.Artifact

	// results holds the Summary of every run the suite has made by its
	// Spec key, for the suite's life: a configuration that several
	// figures, ablations and studies report runs once per pair. Tables
	// only read them.
	results map[string]Summary
}

// NewSuite returns a suite with the given options. A zero Opts.Seed
// becomes the paper seed, as it does in Spec, so every run the suite
// makes — grid points, trained models, ablation RNGs and the
// extensions' learners — uses the seed its memo key records.
func NewSuite(opts Options) *Suite {
	return &Suite{Opts: opts.withPaperSeed(), models: make(map[int]*models.Artifact), results: make(map[string]Summary)}
}

// SetModel registers a pre-trained artifact for its window, so the
// ML figures serve it instead of training inline.
func (s *Suite) SetModel(a *models.Artifact) {
	s.models[a.Window] = a
}

// Model returns the artifact for a window size, training one (once)
// when none was injected.
func (s *Suite) Model(window int) (*models.Artifact, error) {
	if m, ok := s.models[window]; ok {
		return m, nil
	}
	m, err := Train(window, s.Opts)
	if err != nil {
		return nil, err
	}
	s.models[window] = m
	return m, nil
}

// errNoPairs is what every artifact that simulates over Opts.Pairs
// returns when there are none: a mean over no pairs has no value.
var errNoPairs = errors.New("experiments: no pairs")

// grid runs a flat list of points laid out configuration-major,
// pair-minor over s.Opts.Pairs (as cross lays it out) and returns their
// summaries by [row][pair]. Each point runs as its Spec: the point with
// s.Opts' seed and run lengths. A point without a Controller is
// bound to the suite's model for its window (serially: Model's map is
// not safe for concurrent use) and keyed by that Spec; each key runs
// once for the suite's life. A point with its own Controller always
// runs, as the key cannot see its learner state. The runs share one
// parallel fan.
func (s *Suite) grid(points []Point) ([][]Summary, error) {
	n := len(s.Opts.Pairs)
	if n == 0 {
		return nil, errNoPairs
	}
	lookup := func(cfg config.Config) (*models.Artifact, error) { return s.Model(cfg.ReservationWindow) }
	specs := make([]Spec, len(points))
	keys := make([]string, len(points)) // empty for a point with its own Controller
	var todo []int                      // the points to run
	queued := make(map[string]bool)
	for i := range points {
		spec := &specs[i]
		*spec = Spec{Point: points[i], Seed: s.Opts.Seed}
		spec.Config.WarmupCycles, spec.Config.MeasureCycles = int(s.Opts.WarmupCycles), int(s.Opts.MeasureCycles)
		if spec.Controller == nil {
			if err := spec.Bind(lookup); err != nil {
				return nil, err
			}
			keys[i] = spec.Key()
			if _, done := s.results[keys[i]]; done || queued[keys[i]] {
				continue
			}
			queued[keys[i]] = true
		}
		todo = append(todo, i)
	}
	ran, err := parallelMap(len(todo), func(j int) (Summary, error) {
		spec := specs[todo[j]]
		res, err := Run(context.Background(), spec.Point, spec.Options())
		if err != nil {
			return Summary{}, err
		}
		return Summarize(res), nil
	})
	if err != nil {
		return nil, err
	}
	summaries := make([]Summary, len(points))
	for j, i := range todo {
		summaries[i] = ran[j]
		if keys[i] != "" {
			s.results[keys[i]] = ran[j]
		}
	}
	for i, key := range keys {
		if key != "" {
			summaries[i] = s.results[key]
		}
	}
	rows := make([][]Summary, len(points)/n)
	for r := range rows {
		rows[r] = summaries[r*n : (r+1)*n]
	}
	return rows, nil
}

// sweepRows runs the named figure sweep's configurations over the
// suite's pairs, returning them with their grid rows.
func (s *Suite) sweepRows(name string) ([]Point, [][]Summary, error) {
	cfgs, err := sweepConfigs(name)
	if err != nil {
		return nil, nil, err
	}
	rows, err := s.grid(cross(cfgs, s.Opts.Pairs))
	return cfgs, rows, err
}

// meanRows runs every configuration over the suite's pairs and appends
// one row per configuration to t: its Label, then each metric's mean.
func (s *Suite) meanRows(t Table, cfgs []Point, metrics ...func(Summary) float64) (Table, error) {
	rows, err := s.grid(cross(cfgs, s.Opts.Pairs))
	if err != nil {
		return Table{}, err
	}
	for i, row := range rows {
		r := Row{Label: cfgs[i].Label}
		for _, metric := range metrics {
			r.Values = append(r.Values, mean(row, metric))
		}
		t.Rows = append(t.Rows, r)
	}
	return t, nil
}

// sweepMeans is meanRows over the named figure sweep's configurations,
// which it also returns.
func (s *Suite) sweepMeans(t Table, name string, metrics ...func(Summary) float64) (Table, []Point, error) {
	cfgs, err := sweepConfigs(name)
	if err != nil {
		return Table{}, nil, err
	}
	t, err = s.meanRows(t, cfgs, metrics...)
	return t, cfgs, err
}

// sum adds a metric over a row's runs in pair order; mean divides that
// sum by the number of pairs. The conversion keeps an inlined metric's
// last product from fusing into the addition.
func sum(row []Summary, metric func(Summary) float64) float64 {
	var total float64
	for _, res := range row {
		total += float64(metric(res))
	}
	return total
}

func mean(row []Summary, metric func(Summary) float64) float64 {
	return sum(row, metric) / float64(len(row))
}

// The metrics the tables average.
func throughput(s Summary) float64 { return s.ThroughputBitsPerCycle }

func laserW(s Summary) float64 { return s.AvgLaserPowerW }

// Figure4 reproduces the CPU-GPU packet breakdown per benchmark pair:
// the share of injected packets from each core type under PEARL-Dyn.
func (s *Suite) Figure4() (Table, error) {
	t := Table{
		Title:   "Figure 4: CPU-GPU packet breakdown per traffic pair",
		Columns: []string{"CPU %", "GPU %"},
		Notes:   "CPU benchmarks create more packets than GPU overall; DBA keeps allocation demand-driven",
	}
	_, rows, err := s.sweepRows("fig4")
	if err != nil {
		return Table{}, err
	}
	for _, res := range rows[0] {
		cpu := float64(res.InjectedCPUShare * 100)
		t.Rows = append(t.Rows, Row{Label: res.Pair, Values: []float64{cpu, 100 - cpu}})
	}
	return t, nil
}

// Figure5 reproduces the energy-per-bit comparison of PEARL-Dyn,
// PEARL-FCFS and bandwidth-matched CMESH at 64, 32 and 16 wavelengths.
func (s *Suite) Figure5() (Table, error) {
	t := Table{
		Title:   "Figure 5: energy per bit (pJ/bit)",
		Columns: []string{"64WL-eq", "32WL-eq", "16WL-eq"},
	}
	// The fig5 sweep lists, per bandwidth point, PEARL-Dyn, PEARL-FCFS
	// and the bandwidth-matched CMESH: one row each, one column per point.
	_, rows, err := s.sweepRows("fig5")
	if err != nil {
		return Table{}, err
	}
	t.Rows = []Row{{Label: "PEARL-Dyn"}, {Label: "PEARL-FCFS"}, {Label: "CMESH"}}
	for i, row := range rows {
		r := &t.Rows[i%len(t.Rows)]
		r.Values = append(r.Values, mean(row, func(res Summary) float64 { return res.EnergyPerBitPJ }))
	}
	t.Notes = figure5Note(t)
	return t, nil
}

// figure5Note states what Figure 5's rows show rather than what the
// paper claims: at which points PEARL-Dyn undercuts PEARL-FCFS, and
// whether and by what factor it undercuts CMESH from the widest to the
// narrowest bandwidth point.
func figure5Note(t Table) string {
	dyn, fcfs, cmesh := t.Rows[0].Values, t.Rows[1].Values, t.Rows[2].Values
	below := func(other []float64) (cols []string) {
		for i, col := range t.Columns {
			if dyn[i] < other[i] {
				cols = append(cols, col)
			}
		}
		return cols
	}
	where := func(cols []string) string {
		switch len(cols) {
		case len(t.Columns):
			return "at every point"
		case 0:
			return "at no point"
		}
		return "only at " + strings.Join(cols, ", ")
	}
	note := "PEARL-Dyn undercuts PEARL-FCFS " + where(below(fcfs)) + "; it undercuts CMESH "
	underCMESH := below(cmesh)
	if len(underCMESH) != len(t.Columns) {
		return note + where(underCMESH)
	}
	last := len(t.Columns) - 1
	return note + fmt.Sprintf("at every point, by %.1fx at %s to %.1fx at %s",
		cmesh[0]/dyn[0], t.Columns[0], cmesh[last]/dyn[last], t.Columns[last])
}

// Figure6 reproduces the throughput comparison with the 8WL low state:
// the 64WL baseline, the paper's architectures and related work.
func (s *Suite) Figure6() (Table, error) {
	t := Table{
		Title:   "Figure 6: throughput of power-scaling architectures (bits/cycle)",
		Columns: []string{"throughput", "vs 64WL %"},
		Notes:   "paper: ML RW2000 -0.3%, Dyn RW500 -1.3%, Dyn RW2000 -8%, ML RW500 -14%",
	}
	t, _, err := s.sweepMeans(t, "fig6", throughput)
	if err != nil {
		return Table{}, err
	}
	return vsRow(t, 0), nil
}

// Figure7 reproduces the average laser power comparison over Figure
// 6's configurations.
func (s *Suite) Figure7() (Table, error) {
	t := Table{
		Title:   "Figure 7: average laser power (W)",
		Columns: []string{"laser W", "savings %"},
		Notes:   "paper: ML RW500 65.5%, ML RW500-no8WL 60.7%, Dyn RW2000 55.8%, Dyn RW500 46%, ML RW2000 42% savings",
	}
	t, _, err := s.sweepMeans(t, "fig7", laserW)
	if err != nil {
		return Table{}, err
	}
	ref := t.Rows[0].Values[0]
	for i := range t.Rows {
		v := t.Rows[i].Values[0]
		t.Rows[i].Values = append(t.Rows[i].Values, 100*(ref-v)/ref)
	}
	return t, nil
}

// Figure8 reproduces the wavelength-state residency of ML-based power
// scaling for RW500 (a) and RW2000 (b).
func (s *Suite) Figure8() (Table, error) {
	t := Table{
		Title:   "Figure 8: % of time in each wavelength state (ML power scaling)",
		Columns: []string{"8WL", "16WL", "32WL", "48WL", "64WL"},
		Notes:   "paper: ML RW2000 spends just under 30% in the 64WL state",
	}
	cfgs, rows, err := s.sweepRows("fig8")
	if err != nil {
		return Table{}, err
	}
	for i, row := range rows {
		r := Row{Label: cfgs[i].Label}
		for _, wl := range []int{8, 16, 32, 48, 64} {
			share := sum(row, func(res Summary) float64 { return res.StateResidency[wl] })
			r.Values = append(r.Values, 100*share/float64(len(row)))
		}
		t.Rows = append(t.Rows, r)
	}
	return t, nil
}

// vsRow appends to every row the percentage by which its first value
// exceeds the first value of row base.
func vsRow(t Table, base int) Table {
	ref := t.Rows[base].Values[0]
	for i := range t.Rows {
		v := t.Rows[i].Values[0]
		t.Rows[i].Values = append(t.Rows[i].Values, 100*(v-ref)/ref)
	}
	return t
}

// Figure9 reproduces the RW500 no-8WL throughput comparison against the
// photonic and electrical baselines.
func (s *Suite) Figure9() (Table, error) {
	t := Table{
		Title:   "Figure 9: throughput, RW500 without 8WL low state (bits/cycle)",
		Columns: []string{"throughput", "vs CMESH %"},
		Notes:   "paper: dynamic and ML power scaling outperform CMESH by 34% and 20%; Dyn RW500 ~= PEARL-FCFS",
	}
	t, _, err := s.sweepMeans(t, "fig9", throughput)
	if err != nil {
		return Table{}, err
	}
	return vsRow(t, len(t.Rows)-1), nil
}

// Figure10 reproduces the ML throughput across reservation windows 500,
// 1000 and 2000, against the static 64WL baseline.
func (s *Suite) Figure10() (Table, error) {
	t := Table{
		Title:   "Figure 10: ML power-scaling throughput vs reservation window (bits/cycle)",
		Columns: []string{"throughput", "vs 64WL %"},
		Notes:   "paper: RW2000 best throughput; RW500/RW1000 drop vs static 64WL",
	}
	t, _, err := s.sweepMeans(t, "fig10", throughput)
	if err != nil {
		return Table{}, err
	}
	return vsRow(t, 0), nil
}

// Figure11 reproduces the laser turn-on sensitivity study: average laser
// power and throughput for Dyn RW500/RW2000 as stabilisation time sweeps
// 2-32 ns.
func (s *Suite) Figure11() (Table, error) {
	t := Table{
		Title:   "Figure 11: laser turn-on sensitivity (Dyn power scaling)",
		Columns: []string{"laser W", "throughput", "thr loss %"},
		Notes:   "paper: power varies <1% across turn-on latencies; throughput loss grows with turn-on time",
	}
	t, cfgs, err := s.sweepMeans(t, "fig11", laserW, throughput)
	if err != nil {
		return Table{}, err
	}
	// Each window's loss is against its own 2 ns row.
	var base float64
	for i := range t.Rows {
		thr := t.Rows[i].Values[1]
		if cfgs[i].Config.LaserTurnOnNs == 2 {
			base = thr
		}
		t.Rows[i].Values = append(t.Rows[i].Values, 100*(base-thr)/base)
	}
	return t, nil
}

// NRMSE reproduces the §IV.C prediction-quality numbers for both window
// sizes.
func (s *Suite) NRMSE() (Table, error) {
	t := Table{
		Title:   "NRMSE fit scores (1 = perfect)",
		Columns: []string{"validation", "test", "top-state acc %", "state acc %"},
		Notes:   "paper: 0.79 validation; 0.68 test at RW500, 0.05 at RW2000 with 99.9% top-state accuracy",
	}
	for _, window := range []int{500, 2000} {
		model, err := s.Model(window)
		if err != nil {
			return Table{}, err
		}
		ev, err := Evaluate(model, s.Opts)
		if err != nil {
			return Table{}, err
		}
		t.Rows = append(t.Rows, Row{
			Label: fmt.Sprintf("ML RW%d", window),
			Values: []float64{
				ev.ValScore, ev.TestScore,
				100 * ev.TopStateAccuracy, 100 * ev.StateAccuracy,
			},
		})
	}
	return t, nil
}

// TableI renders the architecture specification.
func TableI() Table {
	return Table{
		Title:   "Table I: architecture specifications",
		Columns: []string{"value"},
		Rows: []Row{
			{"CPU cores", []float64{config.TotalCPUCores}},
			{"CPU threads/core", []float64{config.CPUThreadsPerCore}},
			{"CPU frequency (GHz)", []float64{config.CPUFrequencyHz / 1e9}},
			{"GPU compute units", []float64{config.TotalGPUCUs}},
			{"GPU frequency (GHz)", []float64{config.GPUFrequencyHz / 1e9}},
			{"network frequency (GHz)", []float64{config.NetworkFrequencyHz / 1e9}},
			{"CPU L1I (kB)", []float64{config.CPUL1ICacheBytes >> 10}},
			{"CPU L1D (kB)", []float64{config.CPUL1DCacheBytes >> 10}},
			{"CPU L2 (kB)", []float64{config.CPUL2CacheBytes >> 10}},
			{"GPU L1 (kB)", []float64{config.GPUL1CacheBytes >> 10}},
			{"GPU L2 (kB)", []float64{config.GPUL2CacheBytes >> 10}},
			{"L3 (MB)", []float64{config.L3CacheBytes >> 20}},
			{"main memory (GB)", []float64{config.MainMemoryBytes >> 30}},
		},
	}
}

// TableIIFig renders the area overhead inventory.
func TableIIFig() Table {
	a := config.TableII()
	return Table{
		Title:   "Table II: area overhead (mm^2)",
		Columns: []string{"area"},
		Rows: []Row{
			{"cluster (CPU, GPU, L1)", []float64{a.ClusterCoresL1}},
			{"L2 per cluster", []float64{a.L2PerCluster}},
			{"optical components", []float64{a.OpticalComponents}},
			{"L3 cache", []float64{a.L3Cache}},
			{"router", []float64{a.Router}},
			{"on-chip laser per router", []float64{a.OnChipLaser}},
			{"dynamic allocation", []float64{a.DynamicAllocation}},
			{"machine learning", []float64{a.MachineLearning}},
			{"chip total", []float64{a.Total()}},
		},
	}
}

// TableV renders the optical loss budget and per-state laser powers.
func TableV() Table {
	l := photonic.TableV()
	t := Table{
		Title:   "Table V: optical components and laser states",
		Columns: []string{"value"},
		Rows: []Row{
			{"modulator insertion (dB)", []float64{l.ModulatorInsertionDB}},
			{"waveguide (dB/cm)", []float64{l.WaveguideDBPerCM}},
			{"coupler (dB)", []float64{l.CouplerDB}},
			{"splitter (dB)", []float64{l.SplitterDB}},
			{"filter through (dB)", []float64{l.FilterThroughDB}},
			{"filter drop (dB)", []float64{l.FilterDropDB}},
			{"photodetector (dB)", []float64{l.PhotodetectorDB}},
			{"receiver sensitivity (dBm)", []float64{l.ReceiverSensDBm}},
			{"total worst-case loss (dB)", []float64{l.TotalLossDB()}},
		},
	}
	states := photonic.States()
	sort.Slice(states, func(i, j int) bool { return states[i] > states[j] })
	for _, s := range states {
		t.Rows = append(t.Rows, Row{
			Label:  fmt.Sprintf("laser power %s (W)", s),
			Values: []float64{s.LaserPowerW()},
		})
	}
	return t
}
