package pearl_test

import (
	"fmt"
	"log"

	pearl "repro"
	"repro/internal/core"
)

func mustBench(name string) pearl.Profile {
	p, err := pearl.BenchmarkByName(name)
	if err != nil {
		log.Fatal(err)
	}
	return p
}

// Build the PEARL photonic crossbar, drive it with one heterogeneous
// benchmark pair, and print throughput, latency and power, then compare
// against the electrical CMESH baseline on the same pair.
func ExampleRun() {
	// The paper's photonic baseline: dynamic bandwidth allocation at a
	// constant 64 wavelengths.
	cfg := pearl.PEARLDyn()

	// One of the 16 Table IV test pairs: the fmm CPU benchmark running
	// simultaneously with the DCT GPU benchmark.
	pair := pearl.Pair{CPU: mustBench("fmm"), GPU: mustBench("DCT")}

	opts := pearl.QuickOptions()
	res, err := pearl.Run(cfg, pair, opts)
	if err != nil {
		log.Fatal(err)
	}

	m := res.Metrics
	fmt.Printf("PEARL quickstart — %s on %s\n\n", res.Name, pair.Name())
	fmt.Printf("throughput       %8.1f bits/cycle\n", m.ThroughputBitsPerCycle())
	fmt.Printf("delivered        %8d packets (%.0f%% CPU / %.0f%% GPU)\n",
		m.Delivered.TotalPackets(), 100*m.Delivered.Share(0), 100*m.Delivered.Share(1))
	fmt.Printf("mean latency     %8.1f cycles\n", m.Latency.Mean())
	fmt.Printf("p99 latency      %8.0f cycles\n", m.Latency.Percentile(99))
	fmt.Printf("laser power      %8.3f W (network total, Table V states)\n",
		res.Account.AverageLaserPowerW())
	fmt.Printf("energy per bit   %8.3f pJ\n", res.Account.EnergyPerBitJ()*1e12)

	cmesh, err := pearl.RunCMESH(pair, opts, 1)
	if err != nil {
		log.Fatal(err)
	}
	gain := 100 * (m.ThroughputBitsPerCycle() - cmesh.Metrics.ThroughputBitsPerCycle()) /
		cmesh.Metrics.ThroughputBitsPerCycle()
	fmt.Printf("\nvs CMESH         %+7.1f%% throughput (paper: +34%%)\n", gain)

	// Output:
	// PEARL quickstart — PEARL-Dyn(64WL) on fmm+DCT
	//
	// throughput          945.7 bits/cycle
	// delivered           44357 packets (37% CPU / 63% GPU)
	// mean latency        368.3 cycles
	// p99 latency          2750 cycles
	// laser power         1.160 W (network total, Table V states)
	// energy per bit      1.502 pJ
	//
	// vs CMESH           +40.3% throughput (paper: +34%)
}

// Algorithm 1's dynamic CPU/GPU bandwidth split protects
// latency-sensitive CPU traffic from bursty GPU kernels: run the same
// GPU-heavy workload under FCFS and under the dynamic allocator, then
// walk the allocation ladder directly.
func ExamplePEARLFCFS() {
	// A GPU-heavy pair: light CPU benchmark against an intense GPU
	// kernel — the scenario where FCFS lets the GPU monopolise the link.
	pair := pearl.Pair{CPU: mustBench("swaptions"), GPU: mustBench("Reduction")}
	opts := pearl.QuickOptions()

	fcfs, err := pearl.Run(pearl.PEARLFCFS(), pair, opts)
	if err != nil {
		log.Fatal(err)
	}
	dyn, err := pearl.Run(pearl.PEARLDyn(), pair, opts)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("workload: %s (GPU-heavy)\n\n", pair.Name())
	fmt.Printf("%-22s %14s %14s\n", "", "PEARL-FCFS", "PEARL-Dyn")
	fmt.Printf("%-22s %14.1f %14.1f\n", "throughput (b/cy)",
		fcfs.Metrics.ThroughputBitsPerCycle(), dyn.Metrics.ThroughputBitsPerCycle())
	fmt.Printf("%-22s %14.1f %14.1f\n", "CPU latency (cycles)",
		fcfs.Metrics.CPULatency.Mean(), dyn.Metrics.CPULatency.Mean())
	fmt.Printf("%-22s %14.1f %14.1f\n", "GPU latency (cycles)",
		fcfs.Metrics.GPULatency.Mean(), dyn.Metrics.GPULatency.Mean())
	fmt.Printf("%-22s %14.0f %14.0f\n", "CPU p99 (cycles)",
		fcfs.Metrics.CPULatency.Percentile(99), dyn.Metrics.CPULatency.Percentile(99))

	improvement := fcfs.Metrics.CPULatency.Percentile(99) / dyn.Metrics.CPULatency.Percentile(99)
	fmt.Printf("\nDBA cuts tail (p99) CPU latency by %.1fx under GPU bursts —\n", improvement)
	fmt.Printf("under FCFS, CPU requests occasionally queue behind whole GPU bursts.\n\n")

	// Walk Algorithm 1's allocation cases directly (paper §III.B,
	// thresholds: CPU bound 16%, GPU bound 6%, 25%-step allocation).
	fmt.Println("Algorithm 1 allocation ladder (beta_CPU, beta_GPU -> CPU/GPU share):")
	cases := []struct {
		name             string
		betaCPU, betaGPU float64
	}{
		{"only CPU traffic", 0.30, 0.00},
		{"only GPU traffic", 0.00, 0.30},
		{"GPU nearly idle", 0.30, 0.03},
		{"CPU nearly idle", 0.05, 0.30},
		{"both loaded", 0.40, 0.40},
	}
	for _, c := range cases {
		a := core.Allocate(c.betaCPU, c.betaGPU, 0.16, 0.06, 0.25)
		fmt.Printf("  %-18s (%.2f, %.2f) -> %3.0f%% / %3.0f%%\n",
			c.name, c.betaCPU, c.betaGPU, 100*a.CPUShare, 100*a.GPUShare)
	}

	// Output:
	// workload: swaptions+Reduction (GPU-heavy)
	//
	//                            PEARL-FCFS      PEARL-Dyn
	// throughput (b/cy)               605.6          649.6
	// CPU latency (cycles)             18.9           21.4
	// GPU latency (cycles)             83.0          411.3
	// CPU p99 (cycles)                  153             66
	//
	// DBA cuts tail (p99) CPU latency by 2.3x under GPU bursts —
	// under FCFS, CPU requests occasionally queue behind whole GPU bursts.
	//
	// Algorithm 1 allocation ladder (beta_CPU, beta_GPU -> CPU/GPU share):
	//   only CPU traffic   (0.30, 0.00) -> 100% /   0%
	//   only GPU traffic   (0.00, 0.30) ->   0% / 100%
	//   GPU nearly idle    (0.30, 0.03) ->  75% /  25%
	//   CPU nearly idle    (0.05, 0.30) ->  25% /  75%
	//   both loaded        (0.40, 0.40) ->  50% /  50%
}

// Compare the static 64-wavelength baseline against reactive dynamic
// laser scaling (Algorithm 1 steps 6-8) at two reservation-window sizes,
// showing the power-performance trade-off and the wavelength-state
// residency behind it.
func ExampleDynRW() {
	pair := pearl.Pair{CPU: mustBench("radiosity"), GPU: mustBench("FastWalsh")}
	opts := pearl.QuickOptions()

	configs := []pearl.Config{
		pearl.PEARLDyn(), // static 64WL baseline
		pearl.DynRW(500),
		pearl.DynRW(2000),
	}

	fmt.Printf("reactive laser power scaling — %s\n\n", pair.Name())
	fmt.Printf("%-18s %12s %10s %12s %10s\n",
		"configuration", "throughput", "vs base", "laser (W)", "savings")

	var baseThr, basePow float64
	for i, cfg := range configs {
		res, err := pearl.Run(cfg, pair, opts)
		if err != nil {
			log.Fatal(err)
		}
		thr := res.Metrics.ThroughputBitsPerCycle()
		pow := res.Account.AverageLaserPowerW()
		if i == 0 {
			baseThr, basePow = thr, pow
		}
		fmt.Printf("%-18s %12.1f %9.1f%% %12.3f %9.1f%%\n",
			res.Name, thr, 100*(thr-baseThr)/baseThr, pow, 100*(basePow-pow)/basePow)
		if i > 0 {
			fmt.Printf("    residency:")
			for _, wl := range res.Metrics.StateResidency.Keys() {
				fmt.Printf(" %dWL=%.0f%%", wl, 100*res.Metrics.StateResidency.Fraction(wl))
			}
			fmt.Printf("   turn-on stalls: %d\n", res.TurnOnStalls)
		}
	}

	fmt.Println("\nThe buffer-occupancy thresholds trade throughput for laser power:")
	fmt.Println("short windows track bursts closely (small loss), long windows")
	fmt.Println("dilute them (more savings at RW-scale reaction lag). Paper: 40-65%")
	fmt.Println("savings at 0-14% throughput loss across window sizes.")

	// Output:
	// reactive laser power scaling — radiosity+FastWalsh
	//
	// configuration        throughput    vs base    laser (W)    savings
	// PEARL-Dyn(64WL)           928.0       0.0%        1.160       0.0%
	// Dyn RW500                 961.9       3.7%        0.789      32.0%
	//     residency: 8WL=16% 16WL=12% 32WL=10% 48WL=11% 64WL=50%   turn-on stalls: 209
	// Dyn RW2000                906.5      -2.3%        0.875      24.6%
	//     residency: 8WL=9% 16WL=8% 32WL=13% 48WL=26% 64WL=44%   turn-on stalls: 58
	//
	// The buffer-occupancy thresholds trade throughput for laser power:
	// short windows track bursts closely (small loss), long windows
	// dilute them (more savings at RW-scale reaction lag). Paper: 40-65%
	// savings at 0-14% throughput loss across window sizes.
}

// Run the paper's two-pass pipeline end to end: collect features under
// random wavelength states, fit the initial ridge model, re-collect
// under the model's own states, tune λ on validation pairs, evaluate on
// the test pairs, then deploy the model as the proactive power-scaling
// policy and compare it with the reactive technique.
func ExampleTrain() {
	opts := pearl.QuickOptions()

	fmt.Println("training ridge regression for RW500 (two-pass collection)...")
	model, err := pearl.Train(500, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  lambda=%g  validation NRMSE score=%.3f\n\n", model.Lambda, model.ValScore)

	ev, err := pearl.Evaluate(model, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("test-set prediction quality (%d windows):\n", ev.Examples)
	fmt.Printf("  NRMSE score %.3f, top-state accuracy %.1f%%, exact state %.1f%%\n\n",
		ev.TestScore, 100*ev.TopStateAccuracy, 100*ev.StateAccuracy)

	pair := pearl.TestPairs()[0]
	base, err := pearl.Run(pearl.PEARLDyn(), pair, opts)
	if err != nil {
		log.Fatal(err)
	}
	reactive, err := pearl.Run(pearl.DynRW(500), pair, opts)
	if err != nil {
		log.Fatal(err)
	}
	proactive, err := pearl.RunWithModel(pearl.MLRW(500, true), pair, opts, model)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("deployment on %s:\n", pair.Name())
	fmt.Printf("%-18s %12s %12s\n", "configuration", "throughput", "laser (W)")
	for _, r := range []pearl.Result{base, reactive, proactive} {
		fmt.Printf("%-18s %12.1f %12.3f\n",
			r.Name, r.Metrics.ThroughputBitsPerCycle(), r.Account.AverageLaserPowerW())
	}
	savings := 100 * (base.Account.AverageLaserPowerW() - proactive.Account.AverageLaserPowerW()) /
		base.Account.AverageLaserPowerW()
	fmt.Printf("\nML power scaling saves %.1f%% laser power on this pair (paper: 65.5%% across the suite).\n", savings)

	// Output:
	// training ridge regression for RW500 (two-pass collection)...
	//   lambda=0.01  validation NRMSE score=0.682
	//
	// test-set prediction quality (2856 windows):
	//   NRMSE score 0.671, top-state accuracy 98.3%, exact state 62.4%
	//
	// deployment on fluidanimate+DCT:
	// configuration        throughput    laser (W)
	// PEARL-Dyn(64WL)           864.4        1.160
	// Dyn RW500                 854.1        0.769
	// ML RW500                  823.6        0.591
	//
	// ML power scaling saves 49.1% laser power on this pair (paper: 65.5% across the suite).
}

// The repository's two future-work extensions against the paper's
// techniques on one pair: an online recursive-least-squares predictor
// that learns during execution (no offline training pass) and a tabular
// Q-learning agent that discovers the power/congestion trade-off by
// itself, next to the static baseline, the reactive technique and the
// offline ridge model.
func ExampleSuite_Extensions() {
	opts := pearl.QuickOptions()
	opts.Pairs = []pearl.Pair{{CPU: mustBench("fluidanimate"), GPU: mustBench("FastWalsh")}}
	opts.MeasureCycles = 40000 // long enough for the learners to settle

	tbl, err := pearl.NewSuite(opts).Extensions()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(tbl)

	// Output:
	// == Extensions: offline ML vs online RLS vs Q-learning (RW500) ==
	//                                   throughput       vs 64WL %         laser W       savings %
	// PEARL-Dyn(64WL)                     793.3984          0.0000          1.1600          0.0000
	// Dyn RW500 (reactive)                713.9648        -10.0118          0.7093         38.8510
	// ML RW500 (offline ridge)            721.5520         -9.0555          0.5703         50.8346
	// Online RLS RW500                    753.5424         -5.0235          0.6550         43.5363
	// Q-learning RW500                    669.0752        -15.6697          0.6593         43.1614
	// note: online learners need no offline data collection; Q-learning trades a slower ramp for threshold-free adaptation
}
