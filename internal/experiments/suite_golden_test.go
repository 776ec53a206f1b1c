package experiments

import (
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/photonic"
)

// suiteGoldenFile holds every Suite.Artifacts() table at
// suiteGoldenOptions' scale, each cell in round-trip precision.
var suiteGoldenFile = filepath.Join("testdata", "suite_tables.golden")

// suiteGoldenOptions is Quick() cut to two test pairs and short runs, so
// every artifact regenerates in about a second.
func suiteGoldenOptions() Options {
	o := Quick()
	o.MeasureCycles = 3000
	o.WarmupCycles = 500
	o.CollectCycles = 4000
	o.Pairs = o.Pairs[:2]
	o.TrainPairs = o.TrainPairs[:3]
	o.ValPairs = o.ValPairs[:1]
	return o
}

// renderSuiteTables writes every artifact's title, columns, notes and
// rows, one tab-separated line each, with every value formatted so it
// parses back to the same float64.
func renderSuiteTables(t *testing.T, s *Suite) string {
	t.Helper()
	var b strings.Builder
	for _, a := range s.Artifacts() {
		tbl, err := a.Fn()
		if err != nil {
			t.Fatalf("artifact %s: %v", a.Key, err)
		}
		b.WriteString("artifact\t" + a.Key + "\n")
		b.WriteString("title\t" + tbl.Title + "\n")
		b.WriteString("columns\t" + strings.Join(tbl.Columns, "\t") + "\n")
		b.WriteString("notes\t" + tbl.Notes + "\n")
		for _, r := range tbl.Rows {
			b.WriteString("row\t" + r.Label)
			for _, v := range r.Values {
				b.WriteString("\t" + strconv.FormatFloat(v, 'g', -1, 64))
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// TestSuiteTablesGolden pins every evaluation table, cell for cell: how
// the suite runs and reduces its rows must not move a bit of any value.
func TestSuiteTablesGolden(t *testing.T) {
	want, err := os.ReadFile(suiteGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	got := renderSuiteTables(t, NewSuite(suiteGoldenOptions()))
	if got == string(want) {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < max(len(gotLines), len(wantLines)); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Errorf("%s line %d:\n got  %q\n want %q", suiteGoldenFile, i+1, g, w)
		}
	}
}

// TestSuiteRunsEachKeyOnce: a suite runs each distinct Spec once for its
// life. One Artifacts pass keys 130 points, 74 of them distinct, and
// holds exactly those. A second pass renders the same tables from the
// same results, and so do repeated points; a point that brings its own
// Controller is never keyed. Each held Summary is marked through the
// Config name no table reads, so a key that ran again would show as an
// unmarked entry.
func TestSuiteRunsEachKeyOnce(t *testing.T) {
	const distinct = 74
	s := NewSuite(suiteGoldenOptions())
	first := renderSuiteTables(t, s)
	if len(s.results) != distinct {
		t.Fatalf("one pass holds %d results, want %d", len(s.results), distinct)
	}
	const held = "held"
	for key, res := range s.results {
		res.Config = held
		s.results[key] = res
	}
	if second := renderSuiteTables(t, s); second != first {
		t.Error("a second pass rendered different tables")
	}

	dyn := pearlPoint(config.PEARLDyn())
	rows, err := s.grid(cross([]Point{dyn, labelled("again", config.PEARLDyn())}, s.Opts.Pairs))
	if err != nil {
		t.Fatal(err)
	}
	for i := range rows[0] {
		if rows[0][i].Config != held || rows[1][i].Config != held {
			t.Errorf("pair %d: the repeated rows hold %q and %q, want the held result", i, rows[0][i].Config, rows[1][i].Config)
		}
	}
	own := dyn
	own.Controller = fixedPolicy{core.StaticPolicy{State: photonic.WL64}}
	if _, err := s.grid(cross([]Point{own}, s.Opts.Pairs)); err != nil {
		t.Fatal(err)
	}

	if len(s.results) != distinct {
		t.Errorf("the suite ends holding %d results, want %d", len(s.results), distinct)
	}
	for key, res := range s.results {
		if res.Config != held {
			t.Errorf("key %s ran again", key)
		}
	}
}

// TestSuiteSeedZeroIsPaperSeed: a zero seed is the paper seed for the
// Suite as it is for Spec, so the runs it makes are the ones its memo
// keys name and the tables match a seed-2018 suite's.
func TestSuiteSeedZeroIsPaperSeed(t *testing.T) {
	tables := make([]Table, 2)
	for i, seed := range []uint64{0, paperSeed} {
		opts := suiteGoldenOptions()
		opts.Seed = seed
		tab, err := NewSuite(opts).Figure4()
		if err != nil {
			t.Fatal(err)
		}
		tables[i] = tab
	}
	if !reflect.DeepEqual(tables[0], tables[1]) {
		t.Fatalf("seed 0 and seed %d give different Figure 4 tables:\n%+v\n%+v", paperSeed, tables[0], tables[1])
	}
}
