package config

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestDefaultValidates(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestPresetsValidate(t *testing.T) {
	presets := []Config{
		PEARLDyn(), PEARLFCFS(),
		DynRW(500), DynRW(2000),
		MLRW(500, true), MLRW(500, false), MLRW(1000, true), MLRW(2000, true),
		StaticWL(64), StaticWL(48), StaticWL(32), StaticWL(16), StaticWL(8),
	}
	for _, c := range presets {
		if err := c.Validate(); err != nil {
			t.Errorf("%s invalid: %v", c.Name(), err)
		}
	}
}

func TestArchitectureConstants(t *testing.T) {
	if TotalCPUCores != 32 {
		t.Errorf("CPU cores = %d, want 32 (Table I)", TotalCPUCores)
	}
	if TotalGPUCUs != 64 {
		t.Errorf("GPU CUs = %d, want 64 (Table I)", TotalGPUCUs)
	}
	if NumRouters != 17 {
		t.Errorf("routers = %d, want 17 (16 clusters + L3)", NumRouters)
	}
	if L3RouterID != 16 {
		t.Errorf("L3 router id = %d, want 16", L3RouterID)
	}
	if GridWidth*GridWidth != NumClusterRouters {
		t.Error("grid does not cover cluster routers")
	}
}

func TestTableIIAreas(t *testing.T) {
	a := TableII()
	if a.ClusterCoresL1 != 25.0 || a.L2PerCluster != 2.1 || a.OpticalComponents != 24.4 {
		t.Errorf("Table II values drifted: %+v", a)
	}
	if a.MachineLearning != 0.018 {
		t.Errorf("ML area = %v, want 0.018 mm^2", a.MachineLearning)
	}
	total := a.Total()
	// 25*16 + 2.1*16 + 24.4 + 8.5 + 0.342*17 + 0.312*17 + 0.576 + 0.018
	want := 25.0*16 + 2.1*16 + 24.4 + 8.5 + 0.342*17 + 0.312*17 + 0.576 + 0.018
	if math.Abs(total-want) > 1e-9 {
		t.Errorf("total area = %v, want %v", total, want)
	}
	if total < 400 || total > 550 {
		t.Errorf("total area %v mm^2 implausible for the 96-core chip", total)
	}
}

func TestValidateRejectsBadWavelengths(t *testing.T) {
	c := Default()
	c.StaticWavelengths = 40
	if err := c.Validate(); err == nil {
		t.Fatal("expected error for 40 wavelengths")
	}
}

func TestValidateRejectsBadWindow(t *testing.T) {
	c := Default()
	c.ReservationWindow = 0
	if c.Validate() == nil {
		t.Fatal("expected error for zero window")
	}
}

func TestValidateRejectsBadThresholds(t *testing.T) {
	c := Default()
	c.Thresholds = PowerThresholds{Lower: 0.5, MidLower: 0.4, MidUpper: 0.6, Upper: 0.7}
	if c.Validate() == nil {
		t.Fatal("expected error for non-monotone thresholds")
	}
	c.Thresholds = PowerThresholds{Lower: 0.1, MidLower: 0.2, MidUpper: 0.3, Upper: 1.5}
	if c.Validate() == nil {
		t.Fatal("expected error for threshold > 1")
	}
}

func TestValidateRejectsBadBounds(t *testing.T) {
	for _, mut := range []func(*Config){
		func(c *Config) { c.CPUUpperBound = 0 },
		func(c *Config) { c.GPUUpperBound = 1.5 },
		func(c *Config) { c.BandwidthStep = 0 },
		func(c *Config) { c.BandwidthStep = 0.6 },
		func(c *Config) { c.CPUBufferSlots = 0 },
		func(c *Config) { c.GPUBufferSlots = -1 },
		func(c *Config) { c.LaserTurnOnNs = -2 },
		func(c *Config) { c.MeasureCycles = 0 },
		func(c *Config) { c.WarmupCycles = -1 },
		func(c *Config) { c.FeatureOffsetCycles = -1 },
	} {
		c := Default()
		mut(&c)
		if c.Validate() == nil {
			t.Errorf("mutation %+v should fail validation", c)
		}
	}
}

func TestTurnOnCycles(t *testing.T) {
	cases := []struct {
		ns   float64
		want int
	}{
		{2, 4}, // 2 ns at 0.5 ns/cycle
		{4, 8}, // sensitivity study points
		{16, 32},
		{32, 64},
		{0, 0},
		{0.4, 1}, // sub-cycle rounds up
	}
	for _, tc := range cases {
		c := Default()
		c.LaserTurnOnNs = tc.ns
		if got := c.TurnOnCycles(); got != tc.want {
			t.Errorf("TurnOnCycles(%vns) = %d, want %d", tc.ns, got, tc.want)
		}
	}
}

func TestPaperThresholdValues(t *testing.T) {
	c := Default()
	if c.CPUUpperBound != 0.16 {
		t.Errorf("CPU upper bound = %v, want 0.16 (paper §III.B)", c.CPUUpperBound)
	}
	if c.GPUUpperBound != 0.06 {
		t.Errorf("GPU upper bound = %v, want 0.06 (paper §III.B)", c.GPUUpperBound)
	}
	if c.BandwidthStep != 0.25 {
		t.Errorf("bandwidth step = %v, want 0.25 (paper §III.B)", c.BandwidthStep)
	}
}

func TestConfigNames(t *testing.T) {
	cases := []struct {
		c    Config
		want string
	}{
		{PEARLDyn(), "PEARL-Dyn(64WL)"},
		{PEARLFCFS(), "PEARL-FCFS(64WL)"},
		{DynRW(500), "Dyn RW500"},
		{DynRW(2000), "Dyn RW2000"},
		{MLRW(500, true), "ML RW500"},
		{MLRW(500, false), "ML RW500 no8WL"},
		{MLRW(2000, true), "ML RW2000"},
		{StaticWL(32), "PEARL-Dyn(32WL)"},
	}
	for _, tc := range cases {
		if got := tc.c.Name(); got != tc.want {
			t.Errorf("Name() = %q, want %q", got, tc.want)
		}
	}
}

// fmtName is the fmt rendering Config.Name was first written with,
// kept here only as the reference the strconv version must match.
func fmtName(c Config) string {
	switch c.Power {
	case PowerStatic:
		base := "PEARL-Dyn"
		if c.Bandwidth == PolicyFCFS {
			base = "PEARL-FCFS"
		}
		return fmt.Sprintf("%s(%dWL)", base, c.StaticWavelengths)
	case PowerReactive:
		return fmt.Sprintf("Dyn RW%d", c.ReservationWindow)
	case PowerML:
		if c.Allow8WL {
			return fmt.Sprintf("ML RW%d", c.ReservationWindow)
		}
		return fmt.Sprintf("ML RW%d no8WL", c.ReservationWindow)
	case PowerProteus:
		return fmt.Sprintf("PROTEUS RW%d", c.ReservationWindow)
	case PowerD3NOC:
		return fmt.Sprintf("D3NOC RW%d", c.ReservationWindow)
	case PowerOnline:
		return fmt.Sprintf("Online RW%d", c.ReservationWindow)
	case PowerRL:
		return fmt.Sprintf("RL RW%d", c.ReservationWindow)
	default:
		return "unknown"
	}
}

// TestNameMatchesFmt compares Name with the fmt reference for every
// preset under every power policy, an unregistered one included, both
// bandwidth policies, with and without the 8-wavelength state, and at
// every wavelength state and a spread of windows.
func TestNameMatchesFmt(t *testing.T) {
	for _, name := range PresetNames() {
		base, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for p := PowerStatic; p <= PowerRL+1; p++ {
			for _, bw := range []BandwidthPolicy{PolicyFCFS, PolicyDynamic} {
				for _, allow := range []bool{false, true} {
					for i, wl := range ValidWavelengths {
						c := base
						c.Power, c.Bandwidth, c.Allow8WL, c.StaticWavelengths = p, bw, allow, wl
						c.ReservationWindow = []int{base.ReservationWindow, 1, 100, 99999, -7}[i]
						if got, want := c.Name(), fmtName(c); got != want {
							t.Errorf("%s with power %d: Name() = %q, fmt reference %q", name, p, got, want)
						}
					}
				}
			}
		}
	}
}

func TestPolicyStrings(t *testing.T) {
	if PolicyFCFS.String() != "FCFS" || PolicyDynamic.String() != "Dynamic" {
		t.Error("bandwidth policy strings wrong")
	}
	if PowerStatic.String() != "Static" || PowerReactive.String() != "Reactive" || PowerML.String() != "ML" {
		t.Error("power policy strings wrong")
	}
	if !strings.Contains(BandwidthPolicy(9).String(), "9") {
		t.Error("unknown bandwidth policy should include code")
	}
	if !strings.Contains(PowerPolicy(9).String(), "9") {
		t.Error("unknown power policy should include code")
	}
}

func TestTurnOnCyclesNeverTruncates(t *testing.T) {
	f := func(raw uint16) bool {
		ns := float64(raw) / 100 // 0 .. 655.35 ns
		c := Default()
		c.LaserTurnOnNs = ns
		cycles := c.TurnOnCycles()
		periodNs := 1e9 / NetworkFrequencyHz
		return float64(cycles)*periodNs >= ns && float64(cycles)*periodNs < ns+2*periodNs
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultIsPaperBaseline(t *testing.T) {
	c := Default()
	if c.Bandwidth != PolicyDynamic || c.Power != PowerStatic || c.StaticWavelengths != 64 {
		t.Errorf("default should be PEARL-Dyn at 64 WL, got %s", c.Name())
	}
}
