package mlkit

import (
	"encoding/json"
	"math"
	"testing"

	"repro/internal/sim"
)

func fittedModel(t *testing.T) *Ridge {
	t.Helper()
	rng := sim.NewRNG(31)
	rows := make([][]float64, 80)
	y := make([]float64, 80)
	for i := range rows {
		a, b := rng.Normal(0, 1), rng.Normal(2, 3)
		rows[i] = []float64{a, b}
		y[i] = 3*a - b + 7
	}
	m := &Ridge{Lambda: 0.1}
	if err := m.Fit(FromRows(rows), y); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestParamsRoundTrip(t *testing.T) {
	m := fittedModel(t)
	p := m.Params()
	clone, err := RidgeFromParams(p)
	if err != nil {
		t.Fatal(err)
	}
	probe := []float64{0.5, -1.2}
	if math.Abs(m.Predict(probe)-clone.Predict(probe)) > 1e-12 {
		t.Fatalf("clone predicts %v vs %v", clone.Predict(probe), m.Predict(probe))
	}
}

// TestParamsJSONRoundTrip: RidgeParams is the JSON form a model artifact
// embeds, so encoding and decoding it must leave predictions unchanged.
func TestParamsJSONRoundTrip(t *testing.T) {
	m := fittedModel(t)
	raw, err := json.Marshal(m.Params())
	if err != nil {
		t.Fatal(err)
	}
	var p RidgeParams
	if err := json.Unmarshal(raw, &p); err != nil {
		t.Fatal(err)
	}
	clone, err := RidgeFromParams(p)
	if err != nil {
		t.Fatal(err)
	}
	probe := []float64{1, 1}
	if math.Abs(m.Predict(probe)-clone.Predict(probe)) > 1e-12 {
		t.Fatal("JSON roundtrip changed predictions")
	}
}

func TestParamsValidation(t *testing.T) {
	if _, err := RidgeFromParams(RidgeParams{}); err == nil {
		t.Fatal("empty params accepted")
	}
	if _, err := RidgeFromParams(RidgeParams{Weights: []float64{1}, Mean: []float64{0, 0}, Std: []float64{1, 1}}); err == nil {
		t.Fatal("inconsistent params accepted")
	}
	if _, err := RidgeFromParams(RidgeParams{Weights: []float64{1}, Mean: []float64{0}, Std: []float64{0}}); err == nil {
		t.Fatal("zero std accepted")
	}
}

func TestParamsPanicsBeforeFit(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	(&Ridge{}).Params()
}

func TestParamsAreCopies(t *testing.T) {
	m := fittedModel(t)
	p := m.Params()
	p.Weights[0] = 999
	probe := []float64{0.5, -1.2}
	before := m.Predict(probe)
	p2 := m.Params()
	if p2.Weights[0] == 999 {
		t.Fatal("Params exposed internal slice")
	}
	if m.Predict(probe) != before {
		t.Fatal("mutating params changed the model")
	}
}
