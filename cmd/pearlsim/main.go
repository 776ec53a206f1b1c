// Command pearlsim runs one network configuration on one benchmark pair
// and prints the measured throughput, latency and power.
//
// Usage:
//
//	pearlsim -config pearl-dyn -cpu fmm -gpu DCT -cycles 60000
//	pearlsim -config dyn-rw500 -turnon 4
//	pearlsim -config ml-rw500 -model model.json
//	pearlsim -config cmesh
//
// Configurations: pearl-dyn, pearl-fcfs, static-48/32/16/8, dyn-rw500,
// dyn-rw2000, ml-rw500, ml-rw500-no8wl, ml-rw1000, ml-rw2000, cmesh.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/config"
	"repro/internal/controller"
	"repro/internal/experiments"
	"repro/internal/models"
	"repro/internal/stats"
	"repro/internal/traffic"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args, simulates the configuration and writes the report to
// stdout; usage and errors go to stderr. It returns the exit status: 0
// on success or -h, 2 for a bad flag or run length, and 1 when the
// simulation cannot be set up or the report cannot be written.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pearlsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		configName = fs.String("config", "pearl-dyn", "configuration to simulate")
		cpuBench   = fs.String("cpu", "fmm", "CPU benchmark name")
		gpuBench   = fs.String("gpu", "DCT", "GPU benchmark name")
		cycles     = fs.Int64("cycles", 60000, "measured cycles")
		warmup     = fs.Int64("warmup", 2000, "warmup cycles")
		seed       = fs.Uint64("seed", 2018, "experiment seed")
		turnOn     = fs.Float64("turnon", 2, "laser turn-on time (ns)")
		modelPath  = fs.String("model", "", "trained model JSON (required for ml-* configs)")
		timeline   = fs.Bool("timeline", false, "print per-window wavelength/throughput sparklines")
	)
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return 0
	} else if err != nil {
		return 2
	}
	switch {
	case *cycles < 1:
		fmt.Fprintf(stderr, "pearlsim: -cycles must be at least 1, got %d\n", *cycles)
		return 2
	case *warmup < 0:
		fmt.Fprintf(stderr, "pearlsim: -warmup must not be negative, got %d\n", *warmup)
		return 2
	}
	// A bufio.Writer keeps the first write error, which the fmt.Fprint
	// functions drop, and Flush returns it.
	bw := bufio.NewWriter(stdout)
	err := simulate(bw, *configName, *cpuBench, *gpuBench, *cycles, *warmup, *seed, *turnOn, *modelPath, *timeline)
	if ferr := bw.Flush(); err == nil {
		err = ferr
	}
	if err != nil {
		fmt.Fprintln(stderr, "pearlsim:", err)
		return 1
	}
	return 0
}

func simulate(w io.Writer, configName, cpuBench, gpuBench string, cycles, warmup int64, seed uint64, turnOn float64, modelPath string, timeline bool) error {
	cpu, err := traffic.ProfileByName(cpuBench)
	if err != nil {
		return err
	}
	gpu, err := traffic.ProfileByName(gpuBench)
	if err != nil {
		return err
	}
	pair := traffic.Pair{CPU: cpu, GPU: gpu}

	opts := experiments.Full()
	opts.Seed = seed
	opts.MeasureCycles = cycles
	opts.WarmupCycles = warmup

	if strings.EqualFold(configName, "cmesh") {
		p := experiments.Point{Backend: experiments.BackendCMESH, Config: config.Default(), LinkScale: 1, Pair: pair}
		res, err := experiments.Run(context.Background(), p, opts)
		if err != nil {
			return err
		}
		report(w, res)
		return nil
	}

	cfg, err := config.ByName(configName)
	if err != nil {
		return err
	}
	cfg.LaserTurnOnNs = turnOn

	var model *models.Artifact
	if cfg.Power == config.PowerML {
		if modelPath == "" {
			return fmt.Errorf("configuration %s needs -model (train one with pearltrain)", cfg.Name())
		}
		model, err = models.LoadFile(modelPath)
		if err != nil {
			return err
		}
		if model.Window != cfg.ReservationWindow {
			return fmt.Errorf("model trained for RW%d, configuration uses RW%d",
				model.Window, cfg.ReservationWindow)
		}
	}

	res, tl, err := runPEARL(cfg, pair, opts, model, timeline)
	if err != nil {
		return err
	}
	if tl != nil {
		tl.report(w, res)
	} else {
		report(w, res)
	}
	return nil
}

// runPEARL simulates one photonic configuration through the Controller
// registry, like every other tool. With timeline set it also returns the
// per-window series captured through Options.OnWindow; the simulation
// itself is identical either way.
func runPEARL(cfg config.Config, pair traffic.Pair, opts experiments.Options, model *models.Artifact, timeline bool) (experiments.Result, *windowTimeline, error) {
	var tl *windowTimeline
	if timeline {
		tl = &windowTimeline{
			window:      cfg.ReservationWindow,
			wavelengths: stats.NewSeries("mean wavelengths"),
			throughput:  stats.NewSeries("bits/cycle"),
		}
		opts.OnWindow = tl.observe
	}
	ctrl, err := controller.New(cfg, model)
	if err != nil {
		return experiments.Result{}, nil, err
	}
	res, err := experiments.Run(context.Background(), experiments.Point{Config: cfg, Pair: pair, Controller: ctrl}, opts)
	return res, tl, err
}

// windowTimeline collects the two per-window signals -timeline renders
// as sparklines: mean wavelength state across routers and delivered
// bits per cycle.
type windowTimeline struct {
	window      int
	wavelengths *stats.Series
	throughput  *stats.Series
}

func (tl *windowTimeline) observe(ws experiments.WindowStats) {
	tl.wavelengths.Append(ws.Cycle, ws.WavelengthsOn)
	tl.throughput.Append(ws.Cycle, ws.ThroughputBitsPerCycle)
}

func (tl *windowTimeline) report(w io.Writer, res experiments.Result) {
	m := res.Metrics
	fmt.Fprintf(w, "%s on %s — %d windows of %d cycles\n\n",
		res.Name, res.Pair.Name(), tl.throughput.Len(), tl.window)
	fmt.Fprintf(w, "wavelengths  %s  (8..64)\n", tl.wavelengths.Sparkline(72, 8, 64))
	fmt.Fprintf(w, "throughput   %s  (0..max)\n\n", tl.throughput.Sparkline(72, 0, tl.throughput.Max()))
	for _, wl := range m.StateResidency.Keys() {
		fmt.Fprintln(w, stats.HBar(fmt.Sprintf("%d wavelengths", wl),
			100*m.StateResidency.Fraction(wl), 100, 40))
	}
	fmt.Fprintf(w, "\nthroughput %.2f bits/cycle, avg laser %.3f W\n",
		m.ThroughputBitsPerCycle(), res.Account.AverageLaserPowerW())
}

func report(w io.Writer, res experiments.Result) {
	m := res.Metrics
	fmt.Fprintf(w, "configuration:      %s\n", res.Name)
	fmt.Fprintf(w, "benchmark pair:     %s\n", res.Pair.Name())
	fmt.Fprintf(w, "throughput:         %.2f bits/cycle (%.1f Gbps)\n",
		m.ThroughputBitsPerCycle(), m.ThroughputGbps(config.NetworkFrequencyHz))
	fmt.Fprintf(w, "delivered packets:  %d (%.1f%% CPU)\n",
		m.Delivered.TotalPackets(), 100*m.Delivered.Share(0))
	fmt.Fprintf(w, "mean latency:       %.1f cycles (p50 %.0f, p99 %.0f)\n",
		m.Latency.Mean(), m.Latency.Percentile(50), m.Latency.Percentile(99))
	fmt.Fprintf(w, "CPU latency:        %.1f cycles   GPU latency: %.1f cycles\n",
		m.CPULatency.Mean(), m.GPULatency.Mean())
	fmt.Fprintf(w, "round trips:        %d\n", res.Retired)
	fmt.Fprintf(w, "avg laser power:    %.3f W\n", res.Account.AverageLaserPowerW())
	fmt.Fprintf(w, "energy per bit:     %.3f pJ\n", res.Account.EnergyPerBitJ()*1e12)
	if res.TurnOnStalls > 0 {
		fmt.Fprintf(w, "turn-on stalls:     %d\n", res.TurnOnStalls)
	}
	if keys := m.StateResidency.Keys(); len(keys) > 1 {
		fmt.Fprintf(w, "state residency:   ")
		for _, k := range keys {
			fmt.Fprintf(w, " %dWL=%.1f%%", k, 100*m.StateResidency.Fraction(k))
		}
		fmt.Fprintln(w)
	}
}
