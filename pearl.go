// Package pearl is the public API of the PEARL reproduction — a
// power-efficient photonic network-on-chip for heterogeneous CPU-GPU
// multicores with dynamic bandwidth allocation, reactive laser power
// scaling and ridge-regression-based proactive power scaling, after
// Van Winkle, Kodi, Bunescu and Louri, "Extending the Power-Efficiency
// and Performance of Photonic Interconnects for Heterogeneous Multicores
// with Machine Learning" (HPCA 2018).
//
// The package re-exports the library's building blocks (simulation
// engine, photonic crossbar, electrical CMESH baseline, workloads, the
// ML pipeline) and offers one-call helpers for the common flows:
//
//	cfg := pearl.PEARLDyn()
//	res, err := pearl.Run(cfg, pearl.TestPairs()[0], pearl.QuickOptions())
//	fmt.Println(res.ThroughputBitsPerCycle(), res.Account.AverageLaserPowerW())
//
// Every experiment from the paper's evaluation section is reachable
// through Suite (Figure4 .. Figure11, NRMSE) and the cmd/pearlbench tool.
// The package's Example functions tour these flows with their output;
// `go test -run Example -v .` prints them.
package pearl

import (
	"context"
	"io"

	"repro/internal/cmesh"
	"repro/internal/config"
	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/mlkit"
	"repro/internal/models"
	"repro/internal/noc"
	"repro/internal/photonic"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/traffic"
)

// Core simulation types.
type (
	// Engine is the cycle-driven simulation kernel.
	Engine = sim.Engine
	// Config fully describes a network build (Table I/II parameters plus
	// the bandwidth/power policy knobs).
	Config = config.Config
	// Network is the PEARL optical crossbar.
	Network = core.Network
	// CMESH is the electrical concentrated-mesh baseline.
	CMESH = cmesh.Network
	// Packet is one network message.
	Packet = noc.Packet
	// WLState is a laser wavelength state (8-64 wavelengths).
	WLState = photonic.WLState
	// PowerAccount integrates laser/ring/electrical energy.
	PowerAccount = power.Account
	// Metrics is the delivered-traffic statistics bundle.
	Metrics = stats.Network
)

// Workload types.
type (
	// Pair is one CPU benchmark run simultaneously with one GPU
	// benchmark.
	Pair = traffic.Pair
	// Profile is a single benchmark's statistical traffic model.
	Profile = traffic.Profile
	// Workload drives a benchmark pair onto a network.
	Workload = traffic.Workload
)

// Experiment and ML types.
type (
	// Options bound experiment cost and fidelity.
	Options = experiments.Options
	// Result is one simulation run's output.
	Result = experiments.Result
	// Table is a rendered figure/table.
	Table = experiments.Table
	// Suite reproduces the paper's full evaluation.
	Suite = experiments.Suite
	// TrainedModel is the deployable ridge predictor, packaged as a
	// versioned, content-hashed model artifact (see internal/models).
	TrainedModel = models.Artifact
	// ModelRegistry hosts named trained models for serving (pearld's
	// -model-dir store).
	ModelRegistry = models.Registry
	// Ridge is the closed-form regression of Eq. 4-6.
	Ridge = mlkit.Ridge
	// Dataset accumulates (features, label) examples.
	Dataset = mlkit.Dataset
	// Controller mints wavelength-state policies for one configuration
	// and declares its capabilities (see internal/controller).
	Controller = controller.Controller
)

// Configuration presets matching the paper's evaluated designs.
var (
	// DefaultConfig is PEARL-Dyn at a constant 64 wavelengths.
	DefaultConfig = config.Default
	// PEARLDyn is dynamic bandwidth allocation, static 64 WL.
	PEARLDyn = config.PEARLDyn
	// PEARLFCFS is the first-come first-served photonic baseline.
	PEARLFCFS = config.PEARLFCFS
	// DynRW builds reactive power scaling with the given window.
	DynRW = config.DynRW
	// MLRW builds ML power scaling with the given window and 8WL choice.
	MLRW = config.MLRW
	// StaticWL builds a fixed-wavelength PEARL-Dyn variant.
	StaticWL = config.StaticWL
)

// Benchmark suites (§IV.A).
var (
	// CPUBenchmarks lists the 12 PARSEC/SPLASH2-style CPU profiles.
	CPUBenchmarks = traffic.CPUProfiles
	// GPUBenchmarks lists the 12 OpenCL-SDK-style GPU profiles.
	GPUBenchmarks = traffic.GPUProfiles
	// BenchmarkByName looks a profile up in either suite.
	BenchmarkByName = traffic.ProfileByName
	// TrainingPairs crosses the 6+6 training benchmarks (36 pairs).
	TrainingPairs = traffic.TrainingPairs
	// ValidationPairs crosses the 2+2 validation benchmarks (4 pairs).
	ValidationPairs = traffic.ValidationPairs
	// TestPairs crosses the 4+4 Table IV test benchmarks (16 pairs).
	TestPairs = traffic.TestPairs
)

// Experiment option presets.
var (
	// FullOptions is the paper-faithful evaluation scale.
	FullOptions = experiments.Full
	// QuickOptions is a reduced scale for smoke runs and tests.
	QuickOptions = experiments.Quick
)

// NewEngine returns a 2 GHz network-clock simulation engine.
func NewEngine() *Engine { return sim.NewEngine() }

// NewNetwork builds a PEARL crossbar on the engine.
func NewNetwork(e *Engine, cfg Config) (*Network, error) { return core.New(e, cfg) }

// NewCMESH builds the electrical baseline on the engine.
func NewCMESH(e *Engine, cfg Config) (*CMESH, error) { return cmesh.New(e, cfg) }

// NewWorkload wires a benchmark pair to a network target.
func NewWorkload(e *Engine, target traffic.Target, pair Pair, seed uint64) (*Workload, error) {
	return traffic.NewWorkload(e, target, pair, seed)
}

// NewPowerAccount returns an energy accumulator at the network clock.
func NewPowerAccount() *PowerAccount {
	return power.NewAccount(config.NetworkFrequencyHz)
}

// NewSuite returns the full-evaluation driver.
func NewSuite(opts Options) *Suite { return experiments.NewSuite(opts) }

// Run simulates one photonic configuration on one benchmark pair. The
// configuration's registered controller drives the wavelength-state
// policy; model-needing configurations (PowerML) must go through
// RunWithModel or NewController instead.
func Run(cfg Config, pair Pair, opts Options) (Result, error) {
	return experiments.Run(context.Background(), experiments.Point{Config: cfg, Pair: pair}, opts)
}

// RunWithModel simulates an ML power-scaling configuration by building
// its controller around the trained model artifact.
func RunWithModel(cfg Config, pair Pair, opts Options, model *TrainedModel) (Result, error) {
	ctrl, err := controller.New(cfg, model)
	if err != nil {
		return Result{}, err
	}
	return experiments.Run(context.Background(), experiments.Point{Config: cfg, Pair: pair, Controller: ctrl}, opts)
}

// NewController builds the registered wavelength-state controller for a
// configuration (model may be nil unless the controller needs one).
func NewController(cfg Config, model *TrainedModel) (Controller, error) {
	return controller.New(cfg, model)
}

// ControllerNames lists the registered controller policy names.
func ControllerNames() []string { return controller.Names() }

// RunCMESH simulates the electrical baseline (linkScale 1 matches the
// 64-wavelength photonic bisection).
func RunCMESH(pair Pair, opts Options, linkScale int) (Result, error) {
	p := experiments.Point{Backend: "cmesh", Config: config.Default(), LinkScale: linkScale, Pair: pair}
	return experiments.Run(context.Background(), p, opts)
}

// Train runs the paper's two-pass data collection and ridge fit for the
// given reservation window.
func Train(window int, opts Options) (*TrainedModel, error) {
	return experiments.Train(window, opts)
}

// Evaluate scores a trained model on the test pairs (the §IV.C NRMSE
// numbers).
func Evaluate(model *TrainedModel, opts Options) (experiments.Evaluation, error) {
	return experiments.Evaluate(model, opts)
}

// LoadModel reads a trained-model artifact (current format or the
// legacy pearltrain JSON), validating its content hash and feature
// schema.
func LoadModel(r io.Reader) (*TrainedModel, error) { return models.Load(r) }

// OpenModelRegistry opens a directory-backed model registry (empty dir
// means memory-only).
func OpenModelRegistry(dir string) (*ModelRegistry, error) { return models.OpenRegistry(dir) }
