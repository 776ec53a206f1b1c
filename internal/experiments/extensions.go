package experiments

import (
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/rl"
)

// Extensions evaluates the repository's two future-work implementations
// against the paper's techniques at RW500:
//
//   - Online RLS: a recursive-least-squares predictor that starts cold
//     and learns during execution, removing the offline two-pass
//     pipeline entirely (the conclusion's "improving the prediction
//     accuracy" direction).
//   - Q-learning: a tabular reinforcement-learning agent choosing
//     wavelength states from discretised congestion observations, after
//     the RL-for-NoC line of work the paper cites (§II.C).
//
// Every policy runs on the identical workloads and is scored on the same
// throughput/laser-power axes as Figures 6 and 7.
func (s *Suite) Extensions() (Table, error) {
	t := Table{
		Title:   "Extensions: offline ML vs online RLS vs Q-learning (RW500)",
		Columns: []string{"throughput", "vs 64WL %", "laser W", "savings %"},
		Notes:   "online learners need no offline data collection; Q-learning trades a slower ramp for threshold-free adaptation",
	}

	ml := config.MLRW(500, true)
	cfgs := []Point{
		labelled("PEARL-Dyn(64WL)", config.PEARLDyn()),
		labelled("Dyn RW500 (reactive)", config.DynRW(500)),
		labelled("ML RW500 (offline ridge)", ml),
		labelled("Online RLS RW500", ml),
		labelled("Q-learning RW500", ml),
	}
	// The online learners learn as they run, so each pair gets its own:
	// a fresh RLS predictor, and a Q-learning agent seeded per pair.
	n := len(s.Opts.Pairs)
	points := cross(cfgs, s.Opts.Pairs)
	rls, qlearning := points[3*n:4*n], points[4*n:]
	for i := range rls {
		policy, err := core.NewOnlinePolicy(0.995, true)
		if err != nil {
			return Table{}, err
		}
		rls[i].Controller = fixedPolicy{policy}
		rlCfg := rl.DefaultConfig()
		rlCfg.Seed = s.Opts.Seed + uint64(i)
		agent, err := rl.NewAgent(rlCfg)
		if err != nil {
			return Table{}, err
		}
		qlearning[i].Controller = fixedPolicy{agent}
	}
	rows, err := s.grid(points)
	if err != nil {
		return Table{}, err
	}
	baseThr, basePow := mean(rows[0], throughput), mean(rows[0], laserW)
	for i, row := range rows {
		thr, pow := mean(row, throughput), mean(row, laserW)
		t.Rows = append(t.Rows, Row{Label: cfgs[i].Label, Values: []float64{
			thr, 100 * (thr - baseThr) / baseThr,
			pow, 100 * (basePow - pow) / basePow,
		}})
	}
	return t, nil
}
