// Package config holds the PEARL architecture parameters from Tables I and
// II of the paper, the dynamic-bandwidth/power-scaling tunables from §III,
// and validation logic. A single Config value fully determines a network
// build, so experiments are reproducible from (Config, seed).
package config

import (
	"errors"
	"fmt"
	"strconv"
)

// Architecture constants from Table I and §III.A of the paper.
const (
	// NumClusterRouters is the 4x4 grid of CPU-GPU cluster routers.
	NumClusterRouters = 16
	// NumL3Routers is the single optical-crossbar L3 router.
	NumL3Routers = 1
	// NumRouters is every router on the optical crossbar.
	NumRouters = NumClusterRouters + NumL3Routers
	// L3RouterID is the index of the L3 router on the crossbar.
	L3RouterID = NumClusterRouters

	// CPUCoresPerCluster and GPUCUsPerCluster define the checkerboard
	// cluster: 2 CPU cores + 4 GPU compute units share one router.
	CPUCoresPerCluster = 2
	GPUCUsPerCluster   = 4

	// TotalCPUCores and TotalGPUCUs are the chip-wide core counts.
	TotalCPUCores = NumClusterRouters * CPUCoresPerCluster // 32
	TotalGPUCUs   = NumClusterRouters * GPUCUsPerCluster   // 64

	// GridWidth is the side of the 4x4 router grid.
	GridWidth = 4
)

// Clock frequencies from Table I.
const (
	CPUFrequencyHz     = 4e9
	GPUFrequencyHz     = 2e9
	NetworkFrequencyHz = 2e9
)

// Cache sizes from Table I (bytes).
const (
	CPUL1ICacheBytes  = 32 << 10
	CPUL1DCacheBytes  = 64 << 10
	CPUL2CacheBytes   = 256 << 10
	GPUL1CacheBytes   = 64 << 10
	GPUL2CacheBytes   = 512 << 10
	L3CacheBytes      = 8 << 20
	MainMemoryBytes   = 16 << 30
	CPUThreadsPerCore = 4
	CacheLineBytes    = 64
)

// Link and flit geometry from §III.A.3 and §IV.
const (
	// FlitBits is the buffer-slot / flit width (128 bits).
	FlitBits = 128
	// MaxWavelengths is the full 64-wavelength link.
	MaxWavelengths = 64
	// DataRatePerWavelengthGbps is the aggressive 16 Gbps per-wavelength
	// modulation rate from §IV.B.
	DataRatePerWavelengthGbps = 16
)

// AreaMM2 reports Table II component areas in square millimetres.
type AreaMM2 struct {
	ClusterCoresL1    float64 // CPU+GPU cores and private L1s, per cluster
	L2PerCluster      float64
	OpticalComponents float64 // MRRs and waveguides, chip total
	L3Cache           float64
	Router            float64 // per router
	OnChipLaser       float64 // per router
	DynamicAllocation float64 // chip total
	MachineLearning   float64 // chip total
	WaveguidePitchUm  float64
	MRRDiameterUm     float64
}

// TableII returns the Table II area inventory.
func TableII() AreaMM2 {
	return AreaMM2{
		ClusterCoresL1:    25.0,
		L2PerCluster:      2.1,
		OpticalComponents: 24.4,
		L3Cache:           8.5,
		Router:            0.342,
		OnChipLaser:       0.312,
		DynamicAllocation: 0.576,
		MachineLearning:   0.018,
		WaveguidePitchUm:  5.28,
		MRRDiameterUm:     3.3,
	}
}

// Total sums the chip-wide area: per-cluster items times 16 clusters,
// per-router items times 17 routers, plus chip-total items.
func (a AreaMM2) Total() float64 {
	return a.ClusterCoresL1*NumClusterRouters +
		a.L2PerCluster*NumClusterRouters +
		a.OpticalComponents +
		a.L3Cache +
		a.Router*NumRouters +
		a.OnChipLaser*NumRouters +
		a.DynamicAllocation +
		a.MachineLearning
}

// BandwidthPolicy selects how link bandwidth is shared between the CPU and
// GPU traffic classes at each router.
type BandwidthPolicy int

const (
	// PolicyFCFS serves packets strictly first-come first-served with no
	// class-aware split (the PEARL-FCFS baseline).
	PolicyFCFS BandwidthPolicy = iota
	// PolicyDynamic runs Algorithm 1 steps 0-5 every cycle (PEARL-Dyn).
	PolicyDynamic
)

func (p BandwidthPolicy) String() string {
	switch p {
	case PolicyFCFS:
		return "FCFS"
	case PolicyDynamic:
		return "Dynamic"
	default:
		return fmt.Sprintf("BandwidthPolicy(%d)", int(p))
	}
}

// PowerPolicy selects how the laser wavelength state is chosen at each
// reservation-window boundary.
type PowerPolicy int

const (
	// PowerStatic keeps a fixed wavelength state for the whole run.
	PowerStatic PowerPolicy = iota
	// PowerReactive runs Algorithm 1 steps 6-8: the previous window's
	// mean buffer occupancy picks the next window's state.
	PowerReactive
	// PowerML replaces steps 6-8 with the ridge-regression predictor of
	// injected packets (§III.D).
	PowerML
	// PowerProteus is the PROTEUS-style rule-based loss-aware laser
	// power/performance co-management comparison point: hysteresis over
	// per-state link utilisation instead of the Algorithm 1 thresholds.
	PowerProteus
	// PowerD3NOC is the D3NOC-style data-driven reconfiguration
	// comparison point: an EWMA demand estimate picks the cheapest
	// covering state.
	PowerD3NOC
	// PowerOnline is the online recursive-least-squares learner that
	// starts cold and adapts during the run (no offline training).
	PowerOnline
	// PowerRL is the tabular Q-learning extension choosing states from
	// discretised congestion observations.
	PowerRL
)

func (p PowerPolicy) String() string {
	switch p {
	case PowerStatic:
		return "Static"
	case PowerReactive:
		return "Reactive"
	case PowerML:
		return "ML"
	case PowerProteus:
		return "Proteus"
	case PowerD3NOC:
		return "D3NOC"
	case PowerOnline:
		return "Online"
	case PowerRL:
		return "RL"
	default:
		return fmt.Sprintf("PowerPolicy(%d)", int(p))
	}
}

// UsesMLUnit reports whether the policy evaluates a learned predictor
// every reservation window on the paper's 0.018 mm^2 ML unit, and so
// owes its per-window prediction energy. The rule-based policies
// (static, reactive, PROTEUS, D3NOC) decide with comparators only.
func (p PowerPolicy) UsesMLUnit() bool {
	return p == PowerML || p == PowerOnline || p == PowerRL
}

// Config is a complete network build description.
type Config struct {
	// Bandwidth is the per-cycle CPU/GPU split policy.
	Bandwidth BandwidthPolicy
	// Power is the per-window wavelength-state policy.
	Power PowerPolicy

	// StaticWavelengths is the fixed state used when Power ==
	// PowerStatic. Must be one of 64, 48, 32, 16, 8.
	StaticWavelengths int

	// ReservationWindow is the power-scaling epoch in network cycles
	// (paper: 500 and 2000; trained range 100-2000).
	ReservationWindow int

	// Allow8WL permits the 8-wavelength low-power state. The paper
	// excludes it during ML training and reintroduces it at deployment
	// (ML RW500 vs ML RW500-no8WL).
	Allow8WL bool

	// CPUBufferSlots and GPUBufferSlots are the per-router input buffer
	// capacities for each class (Bufmax in Eq. 1-3). The CMESH baseline
	// uses 4 VCs x 4 slots per port; the photonic router concentrates the
	// same storage per class.
	CPUBufferSlots int
	GPUBufferSlots int

	// CPUUpperBound and GPUUpperBound are the Algorithm 1 occupancy
	// thresholds, as fractions of the class buffer space (paper: 16% CPU,
	// 6% GPU, found by brute force on a separate benchmark set).
	CPUUpperBound float64
	GPUUpperBound float64

	// BandwidthStep is the allocation granularity as a fraction (paper
	// considered 0.0625, 0.125 and 0.25; 0.25 performed best).
	BandwidthStep float64

	// Thresholds are the four β_total cut points (fractions of total
	// buffer occupancy averaged over the window) separating the five
	// wavelength states, ordered lower..upper.
	Thresholds PowerThresholds

	// LaserTurnOnNs is the on-chip laser stabilisation time in
	// nanoseconds (paper: 2 ns default; sensitivity study 2-32 ns).
	LaserTurnOnNs float64

	// FeatureOffsetCycles staggers per-router feature collection so all
	// routers do not switch state in the same cycle (paper: 10 cycles).
	FeatureOffsetCycles int

	// WarmupCycles are excluded from measured statistics.
	WarmupCycles int
	// MeasureCycles is the measured portion of the run.
	MeasureCycles int

	// ModelRef names the hosted trained model serving a PowerML run:
	// a registry name (e.g. "rw500") or an artifact content hash. It
	// participates in CanonicalString, so cached ML results are
	// keyed by the exact model version. Empty lets the serving layer
	// pick its default ("rw<window>"); meaningless unless Power is
	// PowerML.
	ModelRef string
}

// PowerThresholds holds the four reactive-scaling cut points. A window's
// mean total buffer occupancy β_total selects: > Upper -> 64 WL,
// > MidUpper -> 48, > MidLower -> 32, > Lower -> 16, else the low state
// (8 WL when allowed, otherwise 16).
type PowerThresholds struct {
	Lower    float64
	MidLower float64
	MidUpper float64
	Upper    float64
}

// DefaultThresholds balance throughput and power as in §III.C. They are
// fractions of total buffer occupancy averaged over the reservation
// window.
func DefaultThresholds() PowerThresholds {
	return PowerThresholds{Lower: 0.012, MidLower: 0.06, MidUpper: 0.15, Upper: 0.30}
}

// Default returns the PEARL-Dyn 64-wavelength configuration used as the
// paper's photonic baseline.
func Default() Config {
	return Config{
		Bandwidth:           PolicyDynamic,
		Power:               PowerStatic,
		StaticWavelengths:   64,
		ReservationWindow:   500,
		Allow8WL:            false,
		CPUBufferSlots:      64,
		GPUBufferSlots:      64,
		CPUUpperBound:       0.16,
		GPUUpperBound:       0.06,
		BandwidthStep:       0.25,
		Thresholds:          DefaultThresholds(),
		LaserTurnOnNs:       2,
		FeatureOffsetCycles: 10,
		WarmupCycles:        2000,
		MeasureCycles:       30000,
	}
}

// Named preset builders for the paper's evaluated configurations.

// PEARLDyn is dynamic bandwidth allocation at a constant 64 wavelengths.
func PEARLDyn() Config { return Default() }

// PEARLFCFS is first-come first-served at a constant 64 wavelengths.
func PEARLFCFS() Config {
	c := Default()
	c.Bandwidth = PolicyFCFS
	return c
}

// DynRW returns reactive dynamic power scaling with the given reservation
// window (paper: 500 and 2000).
func DynRW(window int) Config {
	c := Default()
	c.Power = PowerReactive
	c.ReservationWindow = window
	c.Allow8WL = true
	return c
}

// MLRW returns ML-based power scaling with the given reservation window.
// allow8WL distinguishes ML RW500 from ML RW500-no8WL.
func MLRW(window int, allow8WL bool) Config {
	c := Default()
	c.Power = PowerML
	c.ReservationWindow = window
	c.Allow8WL = allow8WL
	return c
}

// StaticWL returns a fixed-wavelength PEARL-Dyn variant (used by the
// Figure 5 energy/bit sweep over 64/32/16 WL).
func StaticWL(wl int) Config {
	c := Default()
	c.StaticWavelengths = wl
	return c
}

// ProteusRW returns the PROTEUS-style rule-based loss-aware power
// scaling comparison point with the given reservation window.
func ProteusRW(window int) Config {
	c := Default()
	c.Power = PowerProteus
	c.ReservationWindow = window
	c.Allow8WL = true
	return c
}

// D3NOCRW returns the D3NOC-style data-driven reconfiguration
// comparison point with the given reservation window.
func D3NOCRW(window int) Config {
	c := Default()
	c.Power = PowerD3NOC
	c.ReservationWindow = window
	c.Allow8WL = true
	return c
}

// OnlineRW returns online recursive-least-squares power scaling with
// the given reservation window (cold start, learns during the run).
func OnlineRW(window int) Config {
	c := Default()
	c.Power = PowerOnline
	c.ReservationWindow = window
	c.Allow8WL = true
	return c
}

// RLRW returns tabular Q-learning power scaling with the given
// reservation window.
func RLRW(window int) Config {
	c := Default()
	c.Power = PowerRL
	c.ReservationWindow = window
	c.Allow8WL = true
	return c
}

// ValidWavelengths lists the five laser power states of §III.C.
var ValidWavelengths = []int{64, 48, 32, 16, 8}

// Validate reports the first problem with the configuration, or nil.
func (c Config) Validate() error {
	okWL := false
	for _, wl := range ValidWavelengths {
		if c.StaticWavelengths == wl {
			okWL = true
			break
		}
	}
	if !okWL {
		return fmt.Errorf("config: static wavelengths %d not one of %v", c.StaticWavelengths, ValidWavelengths)
	}
	if c.ReservationWindow <= 0 {
		return errors.New("config: reservation window must be positive")
	}
	if c.CPUBufferSlots <= 0 || c.GPUBufferSlots <= 0 {
		return errors.New("config: buffer slots must be positive")
	}
	if c.CPUUpperBound <= 0 || c.CPUUpperBound > 1 {
		return fmt.Errorf("config: CPU upper bound %v outside (0,1]", c.CPUUpperBound)
	}
	if c.GPUUpperBound <= 0 || c.GPUUpperBound > 1 {
		return fmt.Errorf("config: GPU upper bound %v outside (0,1]", c.GPUUpperBound)
	}
	if c.BandwidthStep <= 0 || c.BandwidthStep > 0.5 {
		return fmt.Errorf("config: bandwidth step %v outside (0,0.5]", c.BandwidthStep)
	}
	t := c.Thresholds
	if !(t.Lower >= 0 && t.Lower < t.MidLower && t.MidLower < t.MidUpper && t.MidUpper < t.Upper && t.Upper <= 1) {
		return fmt.Errorf("config: thresholds %+v not strictly increasing in [0,1]", t)
	}
	if c.LaserTurnOnNs < 0 {
		return errors.New("config: laser turn-on must be non-negative")
	}
	if c.FeatureOffsetCycles < 0 {
		return errors.New("config: feature offset must be non-negative")
	}
	if c.MeasureCycles <= 0 {
		return errors.New("config: measure cycles must be positive")
	}
	if c.WarmupCycles < 0 {
		return errors.New("config: warmup cycles must be non-negative")
	}
	if c.ModelRef != "" && c.Power != PowerML {
		return fmt.Errorf("config: model ref %q set but power policy is %s, not ML", c.ModelRef, c.Power)
	}
	return nil
}

// TurnOnCycles converts the laser stabilisation time to whole network
// cycles (ceiling).
func (c Config) TurnOnCycles() int {
	periodNs := 1e9 / NetworkFrequencyHz
	n := int(c.LaserTurnOnNs / periodNs)
	if float64(n)*periodNs < c.LaserTurnOnNs {
		n++
	}
	return n
}

// Name returns a short identifier matching the paper's configuration
// labels (e.g. "PEARL-Dyn(64WL)", "Dyn RW500", "ML RW500 no8WL").
func (c Config) Name() string {
	var family, suffix string
	switch c.Power {
	case PowerStatic:
		base := "PEARL-Dyn("
		if c.Bandwidth == PolicyFCFS {
			base = "PEARL-FCFS("
		}
		return base + strconv.Itoa(c.StaticWavelengths) + "WL)"
	case PowerReactive:
		family = "Dyn"
	case PowerML:
		family = "ML"
		if !c.Allow8WL {
			suffix = " no8WL"
		}
	case PowerProteus:
		family = "PROTEUS"
	case PowerD3NOC:
		family = "D3NOC"
	case PowerOnline:
		family = "Online"
	case PowerRL:
		family = "RL"
	default:
		return "unknown"
	}
	return family + " RW" + strconv.Itoa(c.ReservationWindow) + suffix
}
