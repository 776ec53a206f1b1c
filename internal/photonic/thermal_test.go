package photonic

import (
	"math"
	"testing"
)

// piIsland integrates one ring-bank island under a PI-controlled heater
// for steps steps of dt seconds at constant activity power: the stepped
// model whose equilibrium SteadyStateHeaterW solves in closed form. It
// starts settled at the setpoint (heaters pre-trim the rings at boot)
// and returns the final temperature and heater power, and the steps on
// which ring drift exceeded the detection tolerance.
func piIsland(cfg ThermalConfig, activityW, dt float64, steps int) (tempC, heaterW float64, violations int) {
	const (
		heatCapacityJPerK = 5e-5 // ring-bank island thermal mass
		gain              = 0.05 // proportional gain, W per K of error
		integralGain      = 1.0  // integral gain, W per K-second
	)
	tempC = cfg.SetpointC
	var integral float64
	for i := 0; i < steps; i++ {
		errK := cfg.SetpointC - tempC
		// Anti-windup: bound the integral contribution to the heater range.
		lim := cfg.HeaterMaxW / integralGain
		integral = math.Max(-lim, math.Min(lim, integral+errK*dt))
		heaterW = math.Max(0, math.Min(cfg.HeaterMaxW, gain*errK+integralGain*integral))
		outW := cfg.ConductanceWPerK * (tempC - AmbientC)
		tempC += (activityW + heaterW - outW) * dt / heatCapacityJPerK
		if math.Abs(cfg.SetpointC-tempC)*RingDriftNmPerK > DriftToleranceNm {
			violations++
		}
	}
	return tempC, heaterW, violations
}

func TestDriftToleranceKelvin(t *testing.T) {
	// A quarter of the 64-channel spacing across 35 nm, at 0.09 nm/K:
	// about 1.52 K of drift before the receiver margin is gone.
	want := (35.0 / 64 / 4) / 0.09
	if tol := DriftToleranceNm / RingDriftNmPerK; math.Abs(tol-want) > 1e-12 {
		t.Fatalf("tolerance %v K, want %v K", tol, want)
	}
}

func TestThermalSettlesAtSetpoint(t *testing.T) {
	cfg := DefaultThermalConfig()
	// Constant moderate island activity; integrate 2 s in 100 us steps.
	tempC, heaterW, violations := piIsland(cfg, 0.005, 1e-4, 20000)
	if math.Abs(tempC-cfg.SetpointC) > 0.2 {
		t.Fatalf("settled at %v C, setpoint %v", tempC, cfg.SetpointC)
	}
	// Steady-state heater power matches the closed form.
	want := cfg.SteadyStateHeaterW(0.005)
	if math.Abs(heaterW-want) > 0.002 {
		t.Fatalf("heater %v W, steady state %v", heaterW, want)
	}
	if violations != 0 {
		t.Fatalf("%d tolerance violations at steady state", violations)
	}
}

func TestMoreActivityMeansLessTrimming(t *testing.T) {
	cfg := DefaultThermalConfig()
	idle := cfg.SteadyStateHeaterW(0.002)
	busy := cfg.SteadyStateHeaterW(0.02)
	if busy >= idle {
		t.Fatalf("trimming power did not fall with activity: idle %v, busy %v", idle, busy)
	}
}

func TestSteadyStateHeaterClosedForm(t *testing.T) {
	cfg := DefaultThermalConfig()
	// Zero activity: heater supplies the full conduction loss.
	full := cfg.ConductanceWPerK * (cfg.SetpointC - AmbientC)
	if got := cfg.SteadyStateHeaterW(0); math.Abs(got-full) > 1e-12 {
		t.Fatalf("idle heater %v, want %v", got, full)
	}
	// Activity beyond the loss: heater off.
	if got := cfg.SteadyStateHeaterW(full + 1); got != 0 {
		t.Fatalf("overheated site still heating: %v", got)
	}
	// Clamped at the limit.
	small := cfg
	small.HeaterMaxW = 0.01
	if got := small.SteadyStateHeaterW(0); got != 0.01 {
		t.Fatalf("heater not clamped: %v", got)
	}
}
