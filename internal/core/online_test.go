package core

import (
	"reflect"
	"testing"

	"repro/internal/config"
	"repro/internal/photonic"
	"repro/internal/sim"
	"repro/internal/traffic"
)

func TestNewOnlinePolicyValidation(t *testing.T) {
	if _, err := NewOnlinePolicy(0, true); err == nil {
		t.Fatal("zero forgetting accepted")
	}
	if _, err := NewOnlinePolicy(1.2, true); err == nil {
		t.Fatal("forgetting > 1 accepted")
	}
	if _, err := NewOnlinePolicy(0.99, true); err != nil {
		t.Fatal(err)
	}
}

func TestOnlinePolicyWarmupStaysHigh(t *testing.T) {
	p, err := NewOnlinePolicy(0.995, true)
	if err != nil {
		t.Fatal(err)
	}
	feats := make([]float64, FeatureCount)
	for i := 0; i < 3; i++ {
		w := WindowInfo{RouterID: 0, Features: feats, WindowCycles: 500, InjectedFlits: 5, Current: photonic.WL64}
		if got := p.NextState(w); got != photonic.WL64 {
			t.Fatalf("warmup window %d chose %v", i, got)
		}
	}
}

func TestOnlinePolicyLearnsIdle(t *testing.T) {
	p, err := NewOnlinePolicy(0.995, true)
	if err != nil {
		t.Fatal(err)
	}
	// Feed a steady idle signal: features near zero, 4 flits per window.
	feats := make([]float64, FeatureCount)
	feats[8] = 4 // inFromCores
	var last photonic.WLState
	for i := 0; i < 50; i++ {
		w := WindowInfo{RouterID: 0, Features: feats, WindowCycles: 500, InjectedFlits: 4, Current: photonic.WL64}
		last = p.NextState(w)
	}
	if last != photonic.WL8 {
		t.Fatalf("online policy settled at %v for an idle router, want 8WL", last)
	}
	if p.Updates == 0 {
		t.Fatal("no RLS updates applied")
	}
	if pred := p.PredictPackets(feats); pred < 0 || pred > 40 {
		t.Fatalf("learned prediction %v implausible for 4-flit windows", pred)
	}
}

// TestOnlinePolicyHeadroom pins the removal of the dead per-policy
// headroom override: the capacity margin is always the window-derived
// DefaultPredictionHeadroom, and neither model-driven policy may grow
// the field back (both NextState comments point here).
func TestOnlinePolicyHeadroom(t *testing.T) {
	for _, policy := range []any{OnlinePolicy{}, MLPolicy{}} {
		for _, name := range []string{"headroom", "Headroom"} {
			if _, ok := reflect.TypeOf(policy).FieldByName(name); ok {
				t.Fatalf("%T regained a %s field; the margin is always DefaultPredictionHeadroom", policy, name)
			}
		}
	}
	p, err := NewOnlinePolicy(0.995, true)
	if err != nil {
		t.Fatal(err)
	}
	feats := make([]float64, FeatureCount)
	feats[8] = 40
	w := WindowInfo{RouterID: 0, Features: feats, WindowCycles: 500, InjectedFlits: 40, Current: photonic.WL64}
	for i := 0; i < 50; i++ {
		p.NextState(w)
	}
	// Converged on a steady signal, the policy's choice must equal the
	// Eq. 7 mapping under the default margin — no hidden scaling.
	want := StateForPrediction(p.PredictPackets(feats)*DefaultPredictionHeadroom(500),
		config.FlitBits, 500, true)
	if got := p.NextState(w); got != want {
		t.Fatalf("NextState = %v, want %v (default headroom only)", got, want)
	}
}

func TestOnlinePolicyTracksPerRouter(t *testing.T) {
	p, _ := NewOnlinePolicy(0.995, true)
	busy := make([]float64, FeatureCount)
	busy[8] = 400
	idle := make([]float64, FeatureCount)
	idle[8] = 2
	var busyState, idleState photonic.WLState
	for i := 0; i < 60; i++ {
		busyState = p.NextState(WindowInfo{RouterID: 1, Features: busy, WindowCycles: 500, InjectedFlits: 400, Current: photonic.WL64})
		idleState = p.NextState(WindowInfo{RouterID: 2, Features: idle, WindowCycles: 500, InjectedFlits: 2, Current: photonic.WL64})
	}
	if busyState <= idleState {
		t.Fatalf("busy router %v not above idle router %v", busyState, idleState)
	}
}

func TestOnlinePolicyEndToEnd(t *testing.T) {
	engine := sim.NewEngine()
	cfg := config.MLRW(500, true)
	net, err := New(engine, cfg)
	if err != nil {
		t.Fatal(err)
	}
	policy, err := NewOnlinePolicy(0.995, true)
	if err != nil {
		t.Fatal(err)
	}
	net.SetStatePolicy(policy)
	pair := traffic.Pair{CPU: traffic.CPUProfiles()[8], GPU: traffic.GPUProfiles()[8]}
	w, _ := traffic.NewWorkload(engine, net, pair, 5)
	net.SetDeliveryHandler(w.OnDeliver)
	engine.Register(w)
	engine.Register(net)
	engine.Run(2000)
	net.StartMeasurement()
	w.StartMeasurement()
	engine.Run(20000)
	net.StopMeasurement(20000)

	if net.Metrics().Delivered.TotalPackets() == 0 {
		t.Fatal("nothing delivered under the online policy")
	}
	if policy.Updates == 0 {
		t.Fatal("policy never learned")
	}
	// The online learner must leave the 64WL state on this bursty
	// workload (i.e. actually scale power).
	res := net.Metrics().StateResidency
	if res.Fraction(64) > 0.95 {
		t.Fatalf("online policy stuck at 64WL (%.1f%%)", 100*res.Fraction(64))
	}
}
