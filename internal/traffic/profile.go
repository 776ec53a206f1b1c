// Package traffic is the heterogeneous workload substrate standing in for
// the paper's Multi2Sim full-system traces. Each of the 24 named
// benchmarks (12 CPU from PARSEC 2.1 / SPLASH2, 12 GPU from the OpenCL
// SDK) becomes a parameterised stochastic generator reproducing the
// network-level behaviour the paper exploits: steady, latency-sensitive
// CPU traffic; bursty, bandwidth-hungry GPU traffic; request/response
// coherence flows through the shared L3.
//
// Generators are closed-loop: cores have a bounded number of outstanding
// requests, so round-trip latency feeds back into achievable injection
// rate — the mechanism behind the paper's throughput differences between
// PEARL-Dyn, PEARL-FCFS, the power-scaled variants and CMESH.
package traffic

import (
	"fmt"

	"repro/internal/noc"
)

// Profile describes one benchmark's traffic statistically. Rates are
// per-router demands per network cycle for the benchmark's core type.
type Profile struct {
	// Name is the benchmark name (Table IV abbreviations included).
	Name string
	// Class is the core type running the benchmark.
	Class noc.Class

	// BaseRate is the demand rate in the steady (OFF-burst) phase,
	// memory requests per router per cycle.
	BaseRate float64
	// BurstRate is the demand rate inside a burst.
	BurstRate float64
	// BurstEntry is the per-cycle probability of entering a burst.
	BurstEntry float64
	// BurstExit is the per-cycle probability of leaving a burst
	// (expected burst length = 1/BurstExit cycles).
	BurstExit float64
	// RampCycles is how long a starting burst takes to reach full
	// intensity (wavefront launch / warp scheduling ramp on GPUs, loop
	// warm-up on CPUs). Zero means instantaneous bursts. The ramp is
	// what makes next-window demand learnable: a kernel announces itself
	// through partial activity before peaking.
	RampCycles int

	// L3Fraction routes this share of requests to the shared L3 router;
	// the rest go to a peer cluster (remote L2 sharing).
	L3Fraction float64
	// MemFraction of L3 requests miss to main memory and see the longer
	// service latency.
	MemFraction float64
	// WriteFraction of requests are writeback-style and need no
	// response.
	WriteFraction float64

	// MaxOutstanding bounds in-flight requests per router for this class
	// (MSHR budget; CPUs small, GPUs large).
	MaxOutstanding int
	// MaxPending bounds queued-but-not-issued demands; past it the core
	// stalls and demand is shed.
	MaxPending int
}

// Validate reports the first problem with the profile.
func (p Profile) Validate() error {
	switch {
	case p.Name == "":
		return fmt.Errorf("traffic: profile with empty name")
	case p.BaseRate < 0 || p.BurstRate < p.BaseRate:
		return fmt.Errorf("traffic: %s has invalid rates base=%v burst=%v", p.Name, p.BaseRate, p.BurstRate)
	case p.BurstEntry < 0 || p.BurstEntry > 1 || p.BurstExit <= 0 || p.BurstExit > 1:
		return fmt.Errorf("traffic: %s has invalid burst probabilities", p.Name)
	case p.L3Fraction < 0 || p.L3Fraction > 1:
		return fmt.Errorf("traffic: %s has invalid L3 fraction %v", p.Name, p.L3Fraction)
	case p.MemFraction < 0 || p.MemFraction > 1:
		return fmt.Errorf("traffic: %s has invalid memory fraction %v", p.Name, p.MemFraction)
	case p.WriteFraction < 0 || p.WriteFraction > 1:
		return fmt.Errorf("traffic: %s has invalid write fraction %v", p.Name, p.WriteFraction)
	case p.MaxOutstanding <= 0:
		return fmt.Errorf("traffic: %s has non-positive MSHR budget", p.Name)
	case p.MaxPending <= 0:
		return fmt.Errorf("traffic: %s has non-positive pending budget", p.Name)
	case p.RampCycles < 0:
		return fmt.Errorf("traffic: %s has negative ramp", p.Name)
	}
	return nil
}

// MeanRate returns the long-run demand rate implied by the burst process.
func (p Profile) MeanRate() float64 {
	if p.BurstEntry == 0 {
		return p.BaseRate
	}
	// Stationary burst probability of the 2-state chain.
	pOn := p.BurstEntry / (p.BurstEntry + p.BurstExit)
	return pOn*p.BurstRate + (1-pOn)*p.BaseRate
}

// cpuProfile fills the CPU-side defaults: a small MSHR budget (a few
// outstanding misses across the cluster's 2 cores) that makes CPU throughput
// latency-sensitive, and mild phase behaviour.
func cpuProfile(name string, base, burst, entry, exit, l3, mem float64) Profile {
	return Profile{
		Name: name, Class: noc.ClassCPU,
		BaseRate: base, BurstRate: burst, BurstEntry: entry, BurstExit: exit,
		RampCycles: 150,
		L3Fraction: l3, MemFraction: mem, WriteFraction: 0.15,
		MaxOutstanding: 4, MaxPending: 64,
	}
}

// gpuProfile fills the GPU-side defaults: deep MSHR budget (4 CUs x many
// wavefronts) and strong on/off burstiness, the "bursty nature of traffic
// which is typical of GPU traffic" (§IV.A).
func gpuProfile(name string, base, burst, entry, exit, l3, mem float64) Profile {
	return Profile{
		Name: name, Class: noc.ClassGPU,
		BaseRate: base, BurstRate: burst, BurstEntry: entry, BurstExit: exit,
		RampCycles: 250,
		L3Fraction: l3, MemFraction: mem, WriteFraction: 0.18,
		MaxOutstanding: 320, MaxPending: 2048,
	}
}

// CPUProfiles returns the 12 CPU benchmarks (PARSEC 2.1 + SPLASH2 mix,
// §IV.A). The last four are the Table IV test benchmarks.
func CPUProfiles() []Profile {
	return []Profile{
		// Training set (6).
		cpuProfile("blackscholes", 0.0036, 0.0690, 0.0018, 0.0040, 0.75, 0.20),
		cpuProfile("bodytrack", 0.0054, 0.1035, 0.0023, 0.0040, 0.70, 0.25),
		cpuProfile("canneal", 0.0072, 0.1150, 0.0030, 0.0032, 0.80, 0.45),
		cpuProfile("dedup", 0.0054, 0.0920, 0.0023, 0.0048, 0.65, 0.30),
		cpuProfile("ferret", 0.0045, 0.0966, 0.0018, 0.0040, 0.70, 0.25),
		cpuProfile("freqmine", 0.0040, 0.0690, 0.0015, 0.0032, 0.75, 0.20),
		// Validation set (2).
		cpuProfile("streamcluster", 0.0067, 0.1265, 0.0027, 0.0032, 0.80, 0.35),
		cpuProfile("swaptions", 0.0027, 0.0460, 0.0015, 0.0048, 0.70, 0.15),
		// Test set (4) - Table IV: FA, fmm, Rad, x264.
		cpuProfile("fluidanimate", 0.0058, 0.1104, 0.0023, 0.0040, 0.75, 0.30),
		cpuProfile("fmm", 0.0050, 0.1012, 0.0018, 0.0032, 0.70, 0.25),
		cpuProfile("radiosity", 0.0063, 0.1150, 0.0024, 0.0040, 0.75, 0.30),
		cpuProfile("x264", 0.0045, 0.1380, 0.0033, 0.0064, 0.65, 0.25),
	}
}

// GPUProfiles returns the 12 GPU benchmarks (OpenCL SDK, §IV.A). The last
// four are the Table IV test benchmarks.
func GPUProfiles() []Profile {
	return []Profile{
		// Training set (6). Kernel launches appear as kilocycle-scale
		// bursts (mean 1/exit cycles) separated by long idle phases.
		gpuProfile("MatrixMultiply", 0.002, 0.402, 0.00019, 0.0020, 0.85, 0.40),
		gpuProfile("FloydWarshall", 0.003, 0.333, 0.00023, 0.0024, 0.85, 0.35),
		gpuProfile("FastWalsh", 0.002, 0.460, 0.00016, 0.0018, 0.90, 0.45),
		gpuProfile("Histogram", 0.004, 0.299, 0.00029, 0.0028, 0.80, 0.30),
		gpuProfile("PrefixSum", 0.002, 0.253, 0.00022, 0.0024, 0.85, 0.30),
		gpuProfile("BinomialOption", 0.001, 0.368, 0.00017, 0.0020, 0.85, 0.35),
		// Validation set (2).
		gpuProfile("BitonicSort", 0.003, 0.345, 0.00023, 0.0022, 0.85, 0.35),
		gpuProfile("MonteCarloAsian", 0.002, 0.276, 0.00020, 0.0024, 0.80, 0.30),
		// Test set (4) - Table IV: DCT, Dwrt, QRS, Reduc.
		gpuProfile("DCT", 0.002, 0.425, 0.00021, 0.0020, 0.88, 0.40),
		gpuProfile("DwtHaar1D", 0.002, 0.310, 0.00020, 0.0024, 0.85, 0.35),
		gpuProfile("QuasiRandom", 0.001, 0.218, 0.00016, 0.0028, 0.80, 0.25),
		gpuProfile("Reduction", 0.003, 0.391, 0.00025, 0.0022, 0.88, 0.40),
	}
}

// profilesByName indexes both suites by benchmark name. Profiles are
// plain values, so a lookup hands out a copy the caller cannot alias.
var profilesByName = func() map[string]Profile {
	m := make(map[string]Profile)
	for _, p := range append(CPUProfiles(), GPUProfiles()...) {
		m[p.Name] = p
	}
	return m
}()

// ProfileByName looks up a benchmark in either suite.
func ProfileByName(name string) (Profile, error) {
	if p, ok := profilesByName[name]; ok {
		return p, nil
	}
	return Profile{}, fmt.Errorf("traffic: unknown benchmark %q", name)
}

// Pair is one CPU benchmark running simultaneously with one GPU benchmark
// — "each traffic file consists of one CPU benchmark ran simultaneously
// with one GPU benchmark" (§IV.A).
type Pair struct {
	CPU, GPU Profile
}

// Name returns the pair's display label, e.g. "FA+DCT".
func (p Pair) Name() string { return p.CPU.Name + "+" + p.GPU.Name }

func crossPairs(cpus, gpus []Profile) []Pair {
	pairs := make([]Pair, 0, len(cpus)*len(gpus))
	for _, c := range cpus {
		for _, g := range gpus {
			pairs = append(pairs, Pair{CPU: c, GPU: g})
		}
	}
	return pairs
}

// TrainingPairs crosses the 6 training CPU and 6 training GPU benchmarks
// into the paper's 36 training pairs.
func TrainingPairs() []Pair {
	return crossPairs(CPUProfiles()[:6], GPUProfiles()[:6])
}

// ValidationPairs crosses the 2+2 validation benchmarks into 4 pairs used
// to tune the ridge regularisation coefficient.
func ValidationPairs() []Pair {
	return crossPairs(CPUProfiles()[6:8], GPUProfiles()[6:8])
}

// TestPairs crosses the 4+4 Table IV test benchmarks into the 16 pairs all
// figures are reported on.
func TestPairs() []Pair {
	return crossPairs(CPUProfiles()[8:12], GPUProfiles()[8:12])
}
