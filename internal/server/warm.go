package server

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/config"
	"repro/internal/experiments"
	"repro/internal/traffic"
)

// PointKey computes the content address pearld assigns a job for the
// given point: the key under which its result is cached, on disk and
// in memory. cfg's own WarmupCycles/MeasureCycles are the run lengths
// (exactly as a resolved job's are). Exported so offline sweeps
// (`pearlbench -sweep -cache-out`) can emit artifacts whose keys match
// the server's.
func PointKey(backend string, cfg config.Config, pair traffic.Pair, seed uint64, linkScale int) string {
	if backend == "" {
		backend = BackendPEARL
	}
	if seed == 0 {
		seed = 2018
	}
	spec := jobSpec{
		backend:   backend,
		cfg:       cfg,
		pair:      pair,
		seed:      seed,
		warmup:    int64(cfg.WarmupCycles),
		measure:   int64(cfg.MeasureCycles),
		linkScale: linkScaleFor(backend, linkScale),
	}
	return spec.cacheKey()
}

// ResultPayload flattens an experiments.Result into the wire/cache
// payload — the same conversion the worker applies to a finished job.
func ResultPayload(res experiments.Result) *JobResult {
	return newJobResult(res)
}

// WarmStats reports what a cache-warming pass found.
type WarmStats struct {
	// Files is how many artifact files were scanned.
	Files int
	// Loaded counts entries admitted into the cache.
	Loaded int
	// Skipped counts records without a valid key + result (e.g. the
	// timing records of a pearlbench BENCH_*.json file).
	Skipped int
	// Errors counts unreadable or unparseable files.
	Errors int
}

func (w WarmStats) String() string {
	return fmt.Sprintf("%d files: %d entries loaded, %d skipped, %d errors",
		w.Files, w.Loaded, w.Skipped, w.Errors)
}

// WarmCache preloads the result cache from path: a JSON artifact file
// or a directory of them. Each file may hold a single CacheEntry or an
// array of them (the `pearlbench -cache-out` format; the disk cache's
// own files parse too). Records that are not cache entries — such as
// pearlbench's BENCH_*.json timing arrays — are skipped, not fatal, so
// a whole results directory can be pointed at wholesale. Loaded
// entries land in the memory LRU and, when configured, the disk store.
func (s *Server) WarmCache(path string) (WarmStats, error) {
	var stats WarmStats
	files, err := warmFiles(path)
	if err != nil {
		return stats, err
	}
	for _, file := range files {
		stats.Files++
		entries, skipped, err := readWarmFile(file)
		if err != nil {
			stats.Errors++
			continue
		}
		stats.Skipped += skipped
		for _, e := range entries {
			s.store(e.Key, e.Result)
			stats.Loaded++
		}
	}
	s.metrics.cacheWarmed(stats.Loaded)
	return stats, nil
}

// warmFiles expands path into the JSON files to scan.
func warmFiles(path string) ([]string, error) {
	info, err := os.Stat(path)
	if err != nil {
		return nil, fmt.Errorf("warm cache: %w", err)
	}
	if !info.IsDir() {
		return []string{path}, nil
	}
	dirents, err := os.ReadDir(path)
	if err != nil {
		return nil, fmt.Errorf("warm cache: %w", err)
	}
	var files []string
	for _, de := range dirents {
		if de.IsDir() || filepath.Ext(de.Name()) != ".json" {
			continue
		}
		files = append(files, filepath.Join(path, de.Name()))
	}
	sort.Strings(files)
	return files, nil
}

// maxWarmFileBytes bounds one artifact file (a full Figure 5 sweep is
// well under 1 MiB).
const maxWarmFileBytes = 64 << 20

// readWarmFile parses one artifact file into its valid entries plus a
// count of skipped records.
func readWarmFile(path string) (entries []CacheEntry, skipped int, err error) {
	info, err := os.Stat(path)
	if err != nil {
		return nil, 0, err
	}
	if info.Size() > maxWarmFileBytes {
		return nil, 0, fmt.Errorf("warm cache: %s is %d bytes (limit %d)", path, info.Size(), maxWarmFileBytes)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	var single CacheEntry
	if err := json.Unmarshal(data, &single); err == nil {
		if single.validate() == nil {
			return []CacheEntry{single}, 0, nil
		}
		return nil, 1, nil
	}
	var list []CacheEntry
	if err := json.Unmarshal(data, &list); err != nil {
		return nil, 0, fmt.Errorf("warm cache: parsing %s: %w", path, err)
	}
	for _, e := range list {
		if e.validate() != nil {
			skipped++
			continue
		}
		entries = append(entries, e)
	}
	return entries, skipped, nil
}
