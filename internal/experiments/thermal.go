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
	thermal := photonic.DefaultThermalConfig()
	cfgs := []config.Config{
		config.PEARLDyn(),
		config.DynRW(500),
		config.DynRW(2000),
		config.MLRW(500, true),
	}
	for _, cfg := range cfgs {
		ctrl, err := s.controllerFor(cfg)
		if err != nil {
			return Table{}, err
		}
		var laserSum, gatedSum, ungatedSum float64
		for _, pair := range s.Opts.Pairs {
			res, err := runPEARL(cfg, pair, s.Opts, ctrl)
			if err != nil {
				return Table{}, err
			}
			laser := res.Account.AverageLaserPowerW()
			seconds := res.Account.Seconds()
			breakdown := res.Account.Breakdown()
			// Mean per-router activity power heating a site: its share
			// of the laser plus modulation and conversion dissipation.
			activityPerRouter := laser / float64(config.NumRouters)
			if seconds > 0 {
				activityPerRouter += (breakdown.Modulation + breakdown.Conversion) /
					seconds / float64(config.NumRouters)
			}
			// Only the locally-coupled fraction heats the ring island.
			activityPerRouter = float64(activityPerRouter * photonic.IslandCoupling)
			// Ungated: every router's full heater bank regulates against
			// its (cooler) substrate.
			ungated := float64(thermal.SteadyStateHeaterW(activityPerRouter) * float64(config.NumRouters))
			// Gated: only active banks are trimmed; heater need scales
			// with the mean active-wavelength fraction from the run's
			// state residency.
			activeFraction := 0.0
			res0 := res.Metrics.StateResidency
			for _, wl := range res0.Keys() {
				activeFraction += float64(res0.Fraction(wl) * float64(wl) / config.MaxWavelengths)
			}
			if len(res0.Keys()) == 0 {
				activeFraction = 1
			}
			gated := float64(ungated * activeFraction)
			laserSum += laser
			gatedSum += gated
			ungatedSum += ungated
		}
		n := float64(len(s.Opts.Pairs))
		laser, gated, ungated := laserSum/n, gatedSum/n, ungatedSum/n
		t.Rows = append(t.Rows, Row{
			Label:  cfg.Name(),
			Values: []float64{laser, gated, ungated, laser + gated, laser + ungated},
		})
	}
	return t, nil
}
