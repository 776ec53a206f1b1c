package experiments

import (
	"slices"
	"testing"
)

func TestShapeChecksReport(t *testing.T) {
	opts := tiny()
	opts.Pairs = Quick().Pairs // 4 pairs for stabler orderings
	opts.MeasureCycles = 15000
	s := NewSuite(opts)
	report, err := s.RunShapeChecks()
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Checks) < 10 {
		t.Fatalf("only %d checks", len(report.Checks))
	}
	// The verdicts at this scale are pinned by ID: every claim holds but
	// the one below, which fails at Quick scale too and holds at paper
	// scale (shape_checks.txt). A verdict that changes must change here,
	// with its reason.
	wantFailing := []string{"F6F7.dyn2000-saves-more-than-ml2000"}
	var failing []string
	for _, c := range report.Checks {
		if !c.Pass {
			failing = append(failing, c.ID)
		}
	}
	if !slices.Equal(failing, wantFailing) {
		t.Fatalf("failing claims %v, want %v:\n%s", failing, wantFailing, report)
	}
	if report.String() == "" {
		t.Fatal("empty report")
	}
	for _, c := range report.Checks {
		if c.ID == "" || c.Claim == "" || c.Detail == "" {
			t.Fatalf("incomplete check %+v", c)
		}
	}
}
