package experiments

import (
	"repro/internal/config"
	"repro/internal/photonic"
)

// ThermalStudy quantifies the trimming-power side of power scaling. Ring
// heaters hold microrings at a setpoint above the substrate temperature;
// scaling the laser down cools the site, so an always-on heater bank must
// work *harder* — silently eating into the laser savings. The four-bank
// design gates idle banks' heaters along with their lasers (§III.C:
// "Implementing the four-bank design also allows for reducing the
// trimming power along with the laser"), which restores the savings.
//
// For each configuration the study reports the mean per-router activity
// power, the steady-state trimming power under gated and ungated
// heaters, and the resulting net (laser + trimming) network power.
func (s *Suite) ThermalStudy() (Table, error) {
	t := Table{
		Title:   "Thermal study: trimming power under laser scaling (per network)",
		Columns: []string{"laser W", "trim gated W", "trim ungated W", "net gated W", "net ungated W"},
		Notes:   "gating idle banks' heaters (the four-bank design) preserves the laser savings; ungated heaters claw back the cooling headroom",
	}
	cfgs := []Point{
		pearlPoint(config.PEARLDyn()),
		pearlPoint(config.DynRW(500)),
		pearlPoint(config.DynRW(2000)),
		pearlPoint(config.MLRW(500, true)),
	}
	t, err := s.meanRows(t, cfgs, laserW,
		func(r Summary) float64 { gated, _ := trimmingW(r); return gated },
		func(r Summary) float64 { _, ungated := trimmingW(r); return ungated })
	if err != nil {
		return Table{}, err
	}
	for i := range t.Rows {
		v := t.Rows[i].Values
		t.Rows[i].Values = append(v, v[0]+v[1], v[0]+v[2])
	}
	return t, nil
}

// trimmingW is a run's steady-state heater power with idle banks' heaters
// gated and with every heater on.
func trimmingW(res Summary) (gated, ungated float64) {
	laser := res.AvgLaserPowerW
	seconds := res.SimulatedSeconds
	// Mean per-router activity power heating a site: its share of the
	// laser plus modulation and conversion dissipation.
	activityPerRouter := laser / float64(config.NumRouters)
	if seconds > 0 {
		activityPerRouter += (res.ModulationJ + res.ConversionJ) /
			seconds / float64(config.NumRouters)
	}
	// Only the locally-coupled fraction heats the ring island.
	activityPerRouter = float64(activityPerRouter * photonic.IslandCoupling)
	// Ungated: every router's full heater bank regulates against its
	// (cooler) substrate.
	thermal := photonic.DefaultThermalConfig()
	ungated = float64(thermal.SteadyStateHeaterW(activityPerRouter) * float64(config.NumRouters))
	// Gated: only active banks are trimmed; heater need scales with the
	// mean active-wavelength fraction from the run's state residency.
	activeFraction := 0.0
	for _, wl := range res.ResidencyStates() {
		activeFraction += float64(res.StateResidency[wl] * float64(wl) / config.MaxWavelengths)
	}
	if len(res.StateResidency) == 0 {
		activeFraction = 1
	}
	return float64(ungated * activeFraction), ungated
}
