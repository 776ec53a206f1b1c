package experiments

import (
	"sort"

	"repro/internal/config"
)

// Summary is the flat record of one run: every number a table, a shape
// check, pearld's wire payload and its caches read from a Result,
// JSON-encodable and a few hundred bytes, where a sealed Result holds
// its latency histograms. Summarize builds it; the Suite's memo,
// pearld's job results and cache entries, `pearlbench -sweep` and
// pearlsim's report all hold or print Summaries.
//
// The fields up to StateResidency are pearld's job result payload, in
// the order and under the JSON names its clients read (server.JobResult
// is this type); the fields after it are the ones only the evaluation
// tables read, omitted from JSON when zero.
type Summary struct {
	Config                 string          `json:"config"`
	Pair                   string          `json:"pair"`
	ThroughputBitsPerCycle float64         `json:"throughput_bits_per_cycle"`
	ThroughputGbps         float64         `json:"throughput_gbps"`
	DeliveredPackets       uint64          `json:"delivered_packets"`
	CPUShare               float64         `json:"cpu_share"`
	MeanLatencyCycles      float64         `json:"mean_latency_cycles"`
	P50LatencyCycles       float64         `json:"p50_latency_cycles"`
	P99LatencyCycles       float64         `json:"p99_latency_cycles"`
	CPULatencyCycles       float64         `json:"cpu_latency_cycles"`
	GPULatencyCycles       float64         `json:"gpu_latency_cycles"`
	RetiredRoundTrips      uint64          `json:"retired_round_trips"`
	AvgLaserPowerW         float64         `json:"avg_laser_power_w"`
	EnergyPerBitPJ         float64         `json:"energy_per_bit_pj"`
	TurnOnStalls           uint64          `json:"turn_on_stalls"`
	StateResidency         map[int]float64 `json:"state_residency,omitempty"`

	// CPUP99LatencyCycles is the CPU class's 99th-percentile latency
	// (the bandwidth-step ablation).
	CPUP99LatencyCycles float64 `json:"cpu_p99_latency_cycles,omitempty"`
	// InjectedCPUShare is the CPU share of injected packets (Figure 4).
	InjectedCPUShare float64 `json:"injected_cpu_share,omitempty"`
	// SimulatedSeconds is the measured span in simulated time, and
	// ModulationJ and ConversionJ the photonic modulation and O/E
	// conversion energy over it (the thermal study).
	SimulatedSeconds float64 `json:"simulated_seconds,omitempty"`
	ModulationJ      float64 `json:"modulation_j,omitempty"`
	ConversionJ      float64 `json:"conversion_j,omitempty"`
}

// Summarize flattens a finished run into its Summary.
func Summarize(res Result) Summary {
	m, acct := res.Metrics, res.Account
	q := m.Latency.Percentiles(50, 99)
	breakdown := acct.Breakdown()
	s := Summary{
		Config:                 res.Name,
		Pair:                   res.Pair.Name(),
		ThroughputBitsPerCycle: m.ThroughputBitsPerCycle(),
		ThroughputGbps:         m.ThroughputGbps(config.NetworkFrequencyHz),
		DeliveredPackets:       m.Delivered.TotalPackets(),
		CPUShare:               m.Delivered.Share(0),
		MeanLatencyCycles:      m.Latency.Mean(),
		P50LatencyCycles:       q[0],
		P99LatencyCycles:       q[1],
		CPULatencyCycles:       m.CPULatency.Mean(),
		GPULatencyCycles:       m.GPULatency.Mean(),
		RetiredRoundTrips:      res.Retired,
		AvgLaserPowerW:         acct.AverageLaserPowerW(),
		EnergyPerBitPJ:         acct.EnergyPerBitJ() * 1e12,
		TurnOnStalls:           res.TurnOnStalls,
		CPUP99LatencyCycles:    m.CPULatency.Percentile(99),
		InjectedCPUShare:       res.InjectedCPUShare,
		SimulatedSeconds:       acct.Seconds(),
		ModulationJ:            breakdown.Modulation,
		ConversionJ:            breakdown.Conversion,
	}
	if keys := m.StateResidency.Keys(); len(keys) > 0 {
		s.StateResidency = make(map[int]float64, len(keys))
		for _, k := range keys {
			s.StateResidency[k] = m.StateResidency.Fraction(k)
		}
	}
	return s
}

// ResidencyStates lists the wavelength states the run spent time in,
// ascending.
func (s Summary) ResidencyStates() []int {
	states := make([]int, 0, len(s.StateResidency))
	for wl := range s.StateResidency {
		states = append(states, wl)
	}
	sort.Ints(states)
	return states
}
