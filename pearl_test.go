package pearl

import (
	"bytes"
	"reflect"
	"testing"
)

// smallOptions shrinks the quick preset further for API tests.
func smallOptions() Options {
	o := QuickOptions()
	o.MeasureCycles = 5000
	o.WarmupCycles = 1000
	o.CollectCycles = 6000
	o.Pairs = o.Pairs[:2]
	o.TrainPairs = o.TrainPairs[:3]
	o.ValPairs = o.ValPairs[:1]
	return o
}

func TestPublicAPISmoke(t *testing.T) {
	cfg := PEARLDyn()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	pair := TestPairs()[0]
	res, err := Run(cfg, pair, smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.ThroughputBitsPerCycle() <= 0 {
		t.Fatal("no throughput through the public API")
	}
}

func TestDeterministicAcrossFullStack(t *testing.T) {
	// The entire stack behind the public Run — workload, network, power
	// scaling, power accounting — must be bit-reproducible.
	run := func() Result {
		res, err := Run(DynRW(500), TestPairs()[9], smallOptions())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("full stack not deterministic: %.2f vs %.2f bits/cycle, %.2f vs %.2f cycles mean latency",
			a.ThroughputBitsPerCycle(), b.ThroughputBitsPerCycle(), a.Metrics.Latency.Mean(), b.Metrics.Latency.Mean())
	}
}

func TestPublicCMESH(t *testing.T) {
	res, err := RunCMESH(TestPairs()[0], smallOptions(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.ThroughputBitsPerCycle() <= 0 {
		t.Fatal("no CMESH throughput")
	}
}

func TestPublicTrainEvaluateRoundTrip(t *testing.T) {
	opts := smallOptions()
	model, err := Train(500, opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := model.Save(&buf); err != nil {
		t.Fatal(err)
	}
	res, err := RunWithModel(MLRW(500, true), TestPairs()[0], opts, model)
	if err != nil {
		t.Fatal(err)
	}
	// ML power scaling must save laser power vs the static baseline.
	base, err := Run(PEARLDyn(), TestPairs()[0], opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Account.AverageLaserPowerW() >= base.Account.AverageLaserPowerW() {
		t.Fatalf("ML scaling saved nothing: %v vs %v",
			res.Account.AverageLaserPowerW(), base.Account.AverageLaserPowerW())
	}
	ev, err := Evaluate(model, opts)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Examples == 0 {
		t.Fatal("evaluation saw no examples")
	}
}

func TestPublicBuildingBlocks(t *testing.T) {
	engine := NewEngine()
	net, err := NewNetwork(engine, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	acct := NewPowerAccount()
	net.SetAccount(acct)
	w, err := NewWorkload(engine, net, TestPairs()[1], 7)
	if err != nil {
		t.Fatal(err)
	}
	net.SetDeliveryHandler(w.OnDeliver)
	engine.Register(w)
	engine.Register(net)
	engine.Run(3000)
	if acct.DeliveredBits() == 0 {
		t.Fatal("manual wiring delivered nothing")
	}
}

func TestBenchmarkSuitesExposed(t *testing.T) {
	if len(CPUBenchmarks()) != 12 || len(GPUBenchmarks()) != 12 {
		t.Fatal("benchmark suites wrong size")
	}
	if len(TrainingPairs()) != 36 || len(ValidationPairs()) != 4 || len(TestPairs()) != 16 {
		t.Fatal("pair splits wrong size")
	}
	if _, err := BenchmarkByName("fmm"); err != nil {
		t.Fatal(err)
	}
}

func TestPresetNames(t *testing.T) {
	cases := map[string]Config{
		"PEARL-Dyn(64WL)":  PEARLDyn(),
		"PEARL-FCFS(64WL)": PEARLFCFS(),
		"Dyn RW500":        DynRW(500),
		"ML RW2000":        MLRW(2000, true),
		"PEARL-Dyn(16WL)":  StaticWL(16),
	}
	for want, cfg := range cases {
		if cfg.Name() != want {
			t.Errorf("Name() = %q, want %q", cfg.Name(), want)
		}
	}
}

func TestPublicCMESHBuilder(t *testing.T) {
	engine := NewEngine()
	net, err := NewCMESH(engine, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorkload(engine, net, TestPairs()[2], 5)
	if err != nil {
		t.Fatal(err)
	}
	net.SetDeliveryHandler(w.OnDeliver)
	engine.Register(w)
	engine.Register(net)
	net.StartMeasurement()
	engine.Run(3000)
	net.StopMeasurement(3000)
	if net.Metrics().Delivered.TotalPackets() == 0 {
		t.Fatal("public CMESH builder delivered nothing")
	}
}

func TestPublicSuite(t *testing.T) {
	s := NewSuite(smallOptions())
	tbl, err := s.Figure4()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) == 0 {
		t.Fatal("suite produced no rows")
	}
}
