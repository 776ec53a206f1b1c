package traffic

import (
	"testing"

	"repro/internal/config"
	"repro/internal/noc"
	"repro/internal/sim"
)

func TestAllProfilesValidate(t *testing.T) {
	for _, p := range append(CPUProfiles(), GPUProfiles()...) {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
}

func TestSuiteSizes(t *testing.T) {
	if len(CPUProfiles()) != 12 || len(GPUProfiles()) != 12 {
		t.Fatalf("suites = %d CPU, %d GPU; want 12 each (§IV.A)",
			len(CPUProfiles()), len(GPUProfiles()))
	}
	if len(TrainingPairs()) != 36 {
		t.Errorf("training pairs = %d, want 36", len(TrainingPairs()))
	}
	if len(ValidationPairs()) != 4 {
		t.Errorf("validation pairs = %d, want 4", len(ValidationPairs()))
	}
	if len(TestPairs()) != 16 {
		t.Errorf("test pairs = %d, want 16", len(TestPairs()))
	}
}

func TestSplitsAreDisjoint(t *testing.T) {
	seen := map[string]string{}
	record := func(split string, names ...string) {
		for _, n := range names {
			if prev, ok := seen[n]; ok && prev != split {
				t.Errorf("benchmark %s appears in both %s and %s", n, prev, split)
			}
			seen[n] = split
		}
	}
	for _, p := range TrainingPairs() {
		record("train", p.CPU.Name, p.GPU.Name)
	}
	for _, p := range ValidationPairs() {
		record("val", p.CPU.Name, p.GPU.Name)
	}
	for _, p := range TestPairs() {
		record("test", p.CPU.Name, p.GPU.Name)
	}
}

func TestTableIVTestBenchmarks(t *testing.T) {
	// Table IV names the ML test benchmarks: FA, fmm, Rad, x264 (CPU) and
	// DCT, Dwrt, QRS, Reduc (GPU).
	wantCPU := map[string]bool{"fluidanimate": true, "fmm": true, "radiosity": true, "x264": true}
	wantGPU := map[string]bool{"DCT": true, "DwtHaar1D": true, "QuasiRandom": true, "Reduction": true}
	for _, p := range CPUProfiles()[8:12] {
		if !wantCPU[p.Name] {
			t.Errorf("unexpected CPU test benchmark %s", p.Name)
		}
	}
	for _, p := range GPUProfiles()[8:12] {
		if !wantGPU[p.Name] {
			t.Errorf("unexpected GPU test benchmark %s", p.Name)
		}
	}
}

func TestProfileByName(t *testing.T) {
	p, err := ProfileByName("fmm")
	if err != nil || p.Class != noc.ClassCPU {
		t.Fatalf("fmm lookup: %v %v", p, err)
	}
	g, err := ProfileByName("DCT")
	if err != nil || g.Class != noc.ClassGPU {
		t.Fatalf("DCT lookup: %v %v", g, err)
	}
	if _, err := ProfileByName("nope"); err == nil {
		t.Fatal("expected error for unknown benchmark")
	}
	// Every benchmark of both suites resolves to itself: no name is
	// shared between suites.
	for _, want := range append(CPUProfiles(), GPUProfiles()...) {
		got, err := ProfileByName(want.Name)
		if err != nil || got != want {
			t.Fatalf("%s lookup: %+v %v, want %+v", want.Name, got, err, want)
		}
	}
}

func TestGPUProfilesAreBurstier(t *testing.T) {
	// §IV.A observes the bursty nature typical of GPU traffic: every GPU
	// profile's burst:base ratio must dwarf every CPU profile's.
	maxCPU := 0.0
	for _, p := range CPUProfiles() {
		if r := p.BurstRate / p.BaseRate; r > maxCPU {
			maxCPU = r
		}
	}
	for _, p := range GPUProfiles() {
		if r := p.BurstRate / p.BaseRate; r <= maxCPU {
			t.Errorf("%s burst ratio %.1f not above CPU max %.1f", p.Name, r, maxCPU)
		}
	}
}

func TestMeanRate(t *testing.T) {
	p := Profile{BaseRate: 0.01, BurstRate: 0.11, BurstEntry: 0.01, BurstExit: 0.01}
	// Stationary on-probability 0.5 -> mean 0.06.
	if got := p.MeanRate(); got < 0.059 || got > 0.061 {
		t.Fatalf("mean rate = %v, want 0.06", got)
	}
	flat := Profile{BaseRate: 0.02, BurstRate: 0.05, BurstEntry: 0, BurstExit: 0.5}
	if flat.MeanRate() != 0.02 {
		t.Fatalf("no-burst mean = %v", flat.MeanRate())
	}
}

func TestValidateCatchesBadProfiles(t *testing.T) {
	good := CPUProfiles()[0]
	muts := []func(*Profile){
		func(p *Profile) { p.Name = "" },
		func(p *Profile) { p.BurstRate = p.BaseRate / 2 },
		func(p *Profile) { p.BurstEntry = 1.5 },
		func(p *Profile) { p.BurstExit = 0 },
		func(p *Profile) { p.L3Fraction = -0.1 },
		func(p *Profile) { p.MemFraction = 2 },
		func(p *Profile) { p.WriteFraction = -1 },
		func(p *Profile) { p.MaxOutstanding = 0 },
		func(p *Profile) { p.MaxPending = 0 },
	}
	for i, mut := range muts {
		p := good
		mut(&p)
		if p.Validate() == nil {
			t.Errorf("mutation %d should fail validation", i)
		}
	}
}

// sinkTarget accepts every packet and records it.
type sinkTarget struct {
	packets []*noc.Packet
	reject  bool
}

func (s *sinkTarget) Inject(p *noc.Packet) bool {
	if s.reject {
		return false
	}
	s.packets = append(s.packets, p)
	return true
}

func testPair() Pair {
	return Pair{CPU: CPUProfiles()[8], GPU: GPUProfiles()[8]}
}

func TestWorkloadGeneratesBothClasses(t *testing.T) {
	engine := sim.NewEngine()
	sink := &sinkTarget{}
	w, err := NewWorkload(engine, sink, testPair(), 1)
	if err != nil {
		t.Fatal(err)
	}
	w.StartMeasurement()
	engine.Register(w)
	engine.Run(20000)
	var cpu, gpu int
	for _, p := range sink.packets {
		if p.Src < 0 || p.Src >= config.NumClusterRouters {
			t.Fatalf("bad source router %d", p.Src)
		}
		if p.Dst == p.Src {
			t.Fatalf("self-addressed packet %v", p)
		}
		if p.Dst < 0 || p.Dst > config.L3RouterID {
			t.Fatalf("bad destination %d", p.Dst)
		}
		if p.Class == noc.ClassCPU {
			cpu++
		} else {
			gpu++
		}
	}
	if cpu == 0 || gpu == 0 {
		t.Fatalf("cpu=%d gpu=%d packets; both classes must flow", cpu, gpu)
	}
	if w.Injected.TotalPackets() == 0 {
		t.Fatal("measurement counted nothing")
	}
}

func TestWorkloadDeterminism(t *testing.T) {
	run := func() uint64 {
		engine := sim.NewEngine()
		sink := &sinkTarget{}
		w, _ := NewWorkload(engine, sink, testPair(), 42)
		w.StartMeasurement()
		engine.Register(w)
		engine.Run(5000)
		return w.Injected.TotalPackets()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same seed produced %d vs %d packets", a, b)
	}
}

func TestWorkloadSeedsDiffer(t *testing.T) {
	run := func(seed uint64) uint64 {
		engine := sim.NewEngine()
		sink := &sinkTarget{}
		w, _ := NewWorkload(engine, sink, testPair(), seed)
		w.StartMeasurement()
		engine.Register(w)
		engine.Run(5000)
		return w.Injected.TotalPackets()
	}
	if a, b := run(1), run(2); a == b {
		t.Log("different seeds produced identical counts (possible but unlikely)")
	}
}

func TestMSHRBoundsOutstanding(t *testing.T) {
	engine := sim.NewEngine()
	sink := &sinkTarget{}
	w, _ := NewWorkload(engine, sink, testPair(), 3)
	engine.Register(w)
	// With no responses ever delivered, outstanding must saturate at the
	// MSHR budget: 16 routers x (16 CPU + 96 GPU).
	engine.Run(50000)
	limit := config.NumClusterRouters * (testPair().CPU.MaxOutstanding + testPair().GPU.MaxOutstanding)
	if w.Outstanding() > limit {
		t.Fatalf("outstanding %d exceeds MSHR budget %d", w.Outstanding(), limit)
	}
	if w.Outstanding() != limit {
		t.Logf("outstanding %d below saturation %d (burst phases may idle)", w.Outstanding(), limit)
	}
}

func TestResponsesRetireRequests(t *testing.T) {
	engine := sim.NewEngine()
	sink := &sinkTarget{}
	w, _ := NewWorkload(engine, sink, testPair(), 7)
	w.StartMeasurement()
	engine.Register(w)
	// Deliver every injected packet instantly by feeding it back.
	engine.Register(sim.ComponentFunc(func(cycle int64) {
		for _, p := range sink.packets {
			p.ArriveCycle = cycle
			w.OnDeliver(p, cycle)
		}
		sink.packets = sink.packets[:0]
	}))
	engine.Run(10000)
	if w.Retired == 0 {
		t.Fatal("no requests retired despite instant delivery")
	}
	// With instant delivery the MSHR window cannot stay saturated.
	if w.Outstanding() > config.NumClusterRouters*(16+96)/2 {
		t.Fatalf("outstanding %d too high for instant delivery", w.Outstanding())
	}
}

func TestResponsesCarryRequesterClass(t *testing.T) {
	engine := sim.NewEngine()
	sink := &sinkTarget{}
	w, _ := NewWorkload(engine, sink, testPair(), 9)
	engine.Register(w)
	engine.Register(sim.ComponentFunc(func(cycle int64) {
		for _, p := range sink.packets {
			w.OnDeliver(p, cycle)
			if p.Kind == noc.KindResponse && p.Reply {
				if p.Src == p.Dst {
					t.Errorf("self-addressed response %v", p)
				}
			}
		}
		sink.packets = sink.packets[:0]
	}))
	engine.Run(2000)
}

func TestBackpressureStopsInjection(t *testing.T) {
	engine := sim.NewEngine()
	sink := &sinkTarget{reject: true}
	w, _ := NewWorkload(engine, sink, testPair(), 11)
	w.StartMeasurement()
	engine.Register(w)
	engine.Run(5000)
	if w.Injected.TotalPackets() != 0 {
		t.Fatal("rejecting target should accept nothing")
	}
	if w.Pending() == 0 {
		t.Fatal("pending demand should accumulate under backpressure")
	}
	// Pending must respect the shedding bound.
	maxPending := config.NumClusterRouters * (testPair().CPU.MaxPending + testPair().GPU.MaxPending)
	if w.Pending() > maxPending {
		t.Fatalf("pending %d exceeds bound %d", w.Pending(), maxPending)
	}
	if w.Shed == 0 {
		t.Fatal("expected shed demand under total backpressure")
	}
}

func TestNewWorkloadRejectsMismatchedPair(t *testing.T) {
	engine := sim.NewEngine()
	bad := Pair{CPU: GPUProfiles()[0], GPU: GPUProfiles()[1]}
	if _, err := NewWorkload(engine, &sinkTarget{}, bad, 1); err == nil {
		t.Fatal("expected error for GPU profile in CPU slot")
	}
	invalid := testPair()
	invalid.CPU.MaxOutstanding = 0
	if _, err := NewWorkload(engine, &sinkTarget{}, invalid, 1); err == nil {
		t.Fatal("expected error for invalid profile")
	}
}

func TestPairNames(t *testing.T) {
	p := testPair()
	if p.Name() != "fluidanimate+DCT" {
		t.Fatalf("pair name = %q", p.Name())
	}
}

func TestWritebacksDoNotRetire(t *testing.T) {
	engine := sim.NewEngine()
	sink := &sinkTarget{}
	w, _ := NewWorkload(engine, sink, testPair(), 13)
	engine.Register(w)
	engine.Run(3000)
	before := w.Retired
	for _, p := range sink.packets {
		if p.Kind == noc.KindResponse && !p.Reply {
			w.OnDeliver(p, 3000)
		}
	}
	if w.Retired != before {
		t.Fatal("writeback delivery must not retire MSHR credits")
	}
}
