package experiments

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/config"
	"repro/internal/traffic"
)

// pairOf looks up a benchmark pair by name.
func pairOf(t *testing.T, cpu, gpu string) traffic.Pair {
	t.Helper()
	c, err := traffic.ProfileByName(cpu)
	if err != nil {
		t.Fatal(err)
	}
	g, err := traffic.ProfileByName(gpu)
	if err != nil {
		t.Fatal(err)
	}
	return traffic.Pair{CPU: c, GPU: g}
}

// runLengths returns cfg with the given warm-up and measured cycles.
func runLengths(cfg config.Config, warmup, measure int) config.Config {
	cfg.WarmupCycles, cfg.MeasureCycles = warmup, measure
	return cfg
}

// TestSpecKeyPinned pins the literal keys pearld's TestCacheKeyPinned
// pins for the equivalent requests: disk caches and GET /v1/cache/{key}
// address results by these digests.
func TestSpecKeyPinned(t *testing.T) {
	fmmDCT := pairOf(t, "fmm", "DCT")
	quick := runLengths(config.Default(), 200, 2000)
	proteus, err := config.ByName("dyn-rw2000")
	if err != nil {
		t.Fatal(err)
	}
	proteus.Power = config.PowerProteus
	proteus.CPUUpperBound = 0.2
	proteus.Thresholds = config.PowerThresholds{Lower: 0.001, MidLower: 0.07, MidUpper: 0.2, Upper: 0.9}
	for _, tc := range []struct {
		name string
		spec Spec
		key  string
	}{
		{"defaults", Spec{Point: Point{Config: quick, Pair: fmmDCT}}, "5453dd3961bea7fe7ad6a23241e86691"},
		{"cmesh at link scale 4", Spec{Point: Point{Backend: BackendCMESH, Config: quick, LinkScale: 4, Pair: fmmDCT}},
			"370798f1a73295b9adda046049a09ac0"},
		{"proteus overrides", Spec{Point: Point{Config: runLengths(proteus, 300, 3000), Pair: pairOf(t, "x264", "Reduction")}, Seed: 77},
			"d94a79c15d98cec19472ca7a5f1d5433"},
		{"pearl at link scale 4", Spec{Point: Point{Backend: BackendPEARL, Config: quick, LinkScale: 4, Pair: fmmDCT}},
			"5453dd3961bea7fe7ad6a23241e86691"},
	} {
		if got := tc.spec.Key(); got != tc.key {
			t.Errorf("%s: key %s, pinned %s", tc.name, got, tc.key)
		}
	}
}

// specField is one leaf of a Spec the key test varies: a field of Spec
// or Point, or one of Config's own fields.
type specField struct {
	name  string
	index []int
}

// specFields walks Spec, descending into Point and Config.
func specFields(t reflect.Type, prefix string, index []int) []specField {
	var out []specField
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		idx := append(append([]int(nil), index...), i)
		switch f.Type {
		case reflect.TypeOf(Point{}), reflect.TypeOf(config.Config{}):
			out = append(out, specFields(f.Type, prefix+f.Name+".", idx)...)
		default:
			out = append(out, specField{prefix + f.Name, idx})
		}
	}
	return out
}

// otherConfig differs from config.Default() in every field, and is
// valid for both backends.
var otherConfig = config.Config{
	Bandwidth:           config.PolicyFCFS,
	Power:               config.PowerML,
	StaticWavelengths:   32,
	ReservationWindow:   2000,
	Allow8WL:            true,
	CPUBufferSlots:      32,
	GPUBufferSlots:      48,
	CPUUpperBound:       0.2,
	GPUUpperBound:       0.1,
	BandwidthStep:       0.125,
	Thresholds:          config.PowerThresholds{Lower: 0.001, MidLower: 0.07, MidUpper: 0.2, Upper: 0.9},
	LaserTurnOnNs:       4,
	FeatureOffsetCycles: 5,
	WarmupCycles:        300,
	MeasureCycles:       3000,
	ModelRef:            "rw2000",
}

// cmeshKept are the Config fields the electrical mesh reads; Normalize
// drops every other one from a cmesh spec.
var cmeshKept = map[string]bool{
	"CPUBufferSlots": true, "GPUBufferSlots": true, "WarmupCycles": true, "MeasureCycles": true,
}

// executionOnly lists, per backend, the fields that must not change
// the key: the display label, the controller (derived from the keyed
// Config.Power and Config.ModelRef), pearl's link scale and the Config
// fields cmesh never reads. Every other field must change it.
func executionOnly(backend string) map[string]bool {
	out := map[string]bool{"Point.Label": true, "Point.Controller": true}
	switch backend {
	case BackendPEARL:
		out["Point.LinkScale"] = true
	case BackendCMESH:
		for _, f := range reflect.VisibleFields(reflect.TypeOf(config.Config{})) {
			if !cmeshKept[f.Name] {
				out["Point.Config."+f.Name] = true
			}
		}
	}
	return out
}

// TestSpecKeyCoversEveryField changes one field of a Spec at a time, on
// both backends: the key must change exactly when the field is not
// execution-only for that backend. A new field of Spec, Point or Config
// fails here until it is keyed or listed.
func TestSpecKeyCoversEveryField(t *testing.T) {
	fields := specFields(reflect.TypeOf(Spec{}), "", nil)
	for _, backend := range []string{BackendPEARL, BackendCMESH} {
		base := Spec{
			Point: Point{Label: "base", Backend: backend, Config: runLengths(config.Default(), 200, 2000),
				LinkScale: 1, Pair: pairOf(t, "fmm", "DCT")},
			Seed: 2018,
		}
		other := Spec{
			Point: Point{Label: "other", Backend: BackendPEARL, Config: otherConfig,
				LinkScale: 2, Pair: pairOf(t, "x264", "Reduction"), Controller: fixedPolicy{}},
			Seed: 77,
		}
		if backend == BackendPEARL {
			other.Backend = BackendCMESH
		}
		skip := executionOnly(backend)
		baseKey := base.Key()
		for _, f := range fields {
			mut := base
			dst := reflect.ValueOf(&mut).Elem().FieldByIndex(f.index)
			src := reflect.ValueOf(&other).Elem().FieldByIndex(f.index)
			if reflect.DeepEqual(dst.Interface(), src.Interface()) {
				t.Fatalf("%s: the test's other value equals the base value; give it a different one", f.name)
			}
			dst.Set(src)
			changed := mut.Key() != baseKey
			switch {
			case skip[f.name] && changed:
				t.Errorf("%s: execution-only field %s changes the key", backend, f.name)
			case !skip[f.name] && !changed:
				t.Errorf("%s: field %s leaves the key unchanged and is not listed execution-only", backend, f.name)
			}
		}
	}
}

// TestCMESHDroppedFieldsLeaveResult backs the cmesh half of the
// execution-only list with runs: setting any Config field Normalize
// drops from a cmesh spec leaves the result identical.
func TestCMESHDroppedFieldsLeaveResult(t *testing.T) {
	base := Point{Backend: BackendCMESH, Config: runLengths(config.Default(), 200, 2000), Pair: pairOf(t, "fmm", "DCT")}
	opts := Spec{Point: base}.Options()
	want, err := Run(context.Background(), base, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range reflect.VisibleFields(reflect.TypeOf(config.Config{})) {
		if cmeshKept[f.Name] {
			continue
		}
		p := base
		reflect.ValueOf(&p.Config).Elem().FieldByIndex(f.Index).Set(reflect.ValueOf(otherConfig).FieldByIndex(f.Index))
		if f.Name == "ModelRef" {
			p.Config.Power = config.PowerML // a model ref is valid only under PowerML
		}
		got, err := Run(context.Background(), p, opts)
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("cmesh result changed with Config.%s set", f.Name)
		}
	}
}

// TestRunSeedZeroIsPaperSeed: a bare Run with Options.Seed 0 runs the
// paper seed, the run Spec{Seed: 0} keys, on both backends.
func TestRunSeedZeroIsPaperSeed(t *testing.T) {
	pair := pairOf(t, "fluidanimate", "DCT")
	for _, p := range []Point{
		{Backend: BackendPEARL, Config: config.DynRW(500), Pair: pair},
		{Backend: BackendCMESH, Config: config.Default(), Pair: pair, LinkScale: 1},
	} {
		var res [2]Result
		for i, seed := range []uint64{0, paperSeed} {
			r, err := Run(context.Background(), p, Options{Seed: seed, WarmupCycles: 300, MeasureCycles: 3000})
			if err != nil {
				t.Fatal(err)
			}
			res[i] = r
		}
		if !reflect.DeepEqual(res[0], res[1]) {
			t.Errorf("%s: seed 0 and seed %d give different results: %.2f vs %.2f bits/cycle",
				p.Name(), paperSeed, res[0].ThroughputBitsPerCycle(), res[1].ThroughputBitsPerCycle())
		}
	}
}

// TestTrainSeedZeroIsPaperSeed: Train with Options.Seed 0 collects and
// fits under the paper seed and records it, so its artifact is the
// seed-2018 artifact, hash included.
func TestTrainSeedZeroIsPaperSeed(t *testing.T) {
	var hashes [2]string
	for i, seed := range []uint64{0, paperSeed} {
		opts := tiny()
		opts.Seed = seed
		a, err := Train(500, opts)
		if err != nil {
			t.Fatal(err)
		}
		hashes[i] = a.Hash
	}
	if hashes[0] != hashes[1] {
		t.Fatalf("seed 0 trains artifact %s, seed %d trains %s", hashes[0], paperSeed, hashes[1])
	}
}
