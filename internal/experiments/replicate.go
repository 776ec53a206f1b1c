package experiments

import "repro/internal/sim"

// Seed fans: N seeds of one Point are N independent runs (RunSeeds),
// each a complete stack from the one builder, so every seed's Result is
// bit-identical to a standalone Run of that seed.
//
// Seed derivation contract: replica 0 runs the caller's base seed
// unchanged, so it is byte-identical to a single run (and its cache
// entry has the same content address). Replicas i > 0 run
// ReplicaSeed(base, point.Name(), pairName, i). Unlike the single-run
// workload seed (runSeed, which deliberately drops the config name for
// paired comparison), the replica fan folds the config name in: extra
// seeds exist to estimate variance, not to pair configurations, and
// giving each configuration its own fan keeps their error estimates
// independent. The consequence for caching is that a derived seed is a
// first-class seed — the cache key of replica i's result is exactly
// the key a standalone run with that seed would produce, so replicated
// and standalone runs converge on the same cache entries.

// ReplicaSeed derives the base seed for replica index i of a replicated
// run. Index 0 returns base unchanged (byte-identity with single runs);
// higher indices FNV-fold the configuration name, pair name and index,
// then pass the result through sim.Mix64 so consecutive indices land on
// uncorrelated seeds. The result is never 0 (some callers reserve seed
// 0 as "use the default").
func ReplicaSeed(base uint64, configName, pairName string, replica int) uint64 {
	if replica == 0 {
		return base
	}
	h := base
	for _, b := range []byte(configName) {
		h = h*1099511628211 + uint64(b)
	}
	h = h*1099511628211 + uint64('\n') // separator: ("ab","c") != ("a","bc")
	for _, b := range []byte(pairName) {
		h = h*1099511628211 + uint64(b)
	}
	h = h*1099511628211 + uint64(replica) //nolint:gosec // index is small and non-negative
	s := sim.Mix64(h)
	if s == 0 {
		s = 0x9e3779b97f4a7c15
	}
	return s
}

// ReplicaSeeds returns the n-seed fan for a replicated run:
// [base, ReplicaSeed(base, ..., 1), ...].
func ReplicaSeeds(base uint64, configName, pairName string, n int) []uint64 {
	seeds := make([]uint64, n)
	for i := range seeds {
		seeds[i] = ReplicaSeed(base, configName, pairName, i)
	}
	return seeds
}
