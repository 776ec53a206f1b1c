// Command pearlbench regenerates every table and figure from the paper's
// evaluation section: Tables I, II and V, Figures 4-11 and the §IV.C
// NRMSE numbers. Output is aligned text, one block per artifact, suitable
// for diffing against EXPERIMENTS.md.
//
// Usage:
//
//	pearlbench                 # quick scale (4 test pairs, short runs)
//	pearlbench -full           # paper scale (16 pairs, 60k cycles)
//	pearlbench -figure 7       # a single figure
//	pearlbench -out results.txt
//	pearlbench -json BENCH_quick.json   # machine-readable timings
//	pearlbench -sweep fig5 -cache-out warm_fig5.json   # cache-warming artifact
//	pearlbench -figure 5 -cpuprofile cpu.out -memprofile mem.out
//
// The -sweep mode evaluates a named figure sweep (fig4 to fig11) point
// by point and, with -cache-out, writes the results as a cache-entry
// artifact whose content addresses match the ones pearld computes — so
// `pearld -warm-cache warm_fig5.json` serves every point of the
// equivalent batch without simulating.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/config"
	"repro/internal/controller"
	"repro/internal/experiments"
	"repro/internal/models"
	"repro/internal/server"
	"repro/internal/stats"
)

// main defers to realMain so that deferred cleanup — profile writers in
// particular — runs on every exit path; os.Exit skips defers, so it is
// called exactly once, here.
func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// realMain parses args, writes the report to stdout (and to -out) and
// usage and errors to stderr. It returns the exit status: 0 on success or
// -h, 2 for a bad flag, and 1 when a run or a write fails.
func realMain(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("pearlbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		full       = fs.Bool("full", false, "paper-scale runs (16 pairs, 60k cycles)")
		check      = fs.Bool("check", false, "run the machine-verifiable paper-claim shape checks")
		figure     = fs.String("figure", "all", "which artifact: all, t1, t2, t5, 4..11, nrmse, ab-step, ab-bounds, ab-thresholds, ab-window, ab-features, ab-label, extensions, thermal")
		out        = fs.String("out", "", "also write results to this file")
		jsonOut    = fs.String("json", "", "write machine-readable per-artifact benchmark records (name, iters, ns/op, bytes/op) to this file")
		md         = fs.Bool("md", false, "emit a single Markdown report (all artifacts + shape checks)")
		seed       = fs.Uint64("seed", 2018, "experiment seed")
		seeds      = fs.Int("seeds", 1, "with -sweep: run every point over N derived seeds, one independent run each, and report mean ± 95% CI")
		sweep      = fs.String("sweep", "", "evaluate a named figure sweep ("+strings.Join(experiments.SweepNames(), ", ")+")")
		policy     = fs.String("policy", "", "with -sweep: run every photonic point under the named registered controller ("+strings.Join(controller.Names(), ", ")+")")
		cacheOut   = fs.String("cache-out", "", "with -sweep: write results as a pearld cache-warming artifact (JSON)")
		serverURL  = fs.String("server", "", "with -sweep: submit to a running pearld at this base URL instead of simulating in-process; honors 429/503 Retry-After with bounded backoff")
		token      = fs.String("token", "", "API token for -server (tenant bearer token)")
		follow     = fs.Bool("follow", false, "with -server: stream the batch's live SSE event feed (per-window samples, per-point progress) instead of polling silently; falls back to polling if the stream fails")
		modelList  = fs.String("model", "", "comma-separated trained model artifact files (pearltrain -out); serves ML points instead of training in-process")
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memprofile = fs.String("memprofile", "", "write a heap profile taken at exit to this file")
	)
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return 0
	} else if err != nil {
		return 2
	}

	fail := func(err error) int {
		fmt.Fprintln(stderr, "pearlbench:", err)
		return 1
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fail(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(stderr, "pearlbench:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(stderr, "pearlbench:", err)
			}
		}()
	}

	opts := experiments.Quick()
	if *full {
		opts = experiments.Full()
	}
	opts.Seed = *seed

	w := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return fail(err)
		}
		// A bufio.Writer keeps the first write error, which the
		// fmt.Fprint functions drop, and Flush returns it.
		bw := bufio.NewWriter(f)
		w = io.MultiWriter(stdout, bw)
		defer func() {
			err := bw.Flush()
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				fmt.Fprintln(stderr, "pearlbench:", err)
				code = 1
			}
		}()
	}

	arts, err := loadModelArtifacts(*modelList)
	if err != nil {
		return fail(err)
	}

	if *seeds < 1 {
		return fail(fmt.Errorf("-seeds must be at least 1, got %d", *seeds))
	}
	if *policy != "" {
		if _, ok := controller.Lookup(*policy); !ok {
			return fail(fmt.Errorf("unknown -policy %q (registered: %s)", *policy, strings.Join(controller.Names(), ", ")))
		}
		if *sweep == "" {
			return fail(fmt.Errorf("-policy requires -sweep (it overrides the sweep's photonic points)"))
		}
	}
	if *sweep != "" {
		if *serverURL != "" {
			if *cacheOut != "" {
				return fail(fmt.Errorf("-cache-out needs local results; drop -server (the daemon already caches server-side)"))
			}
			if err := runRemoteSweep(w, opts, *sweep, *serverURL, *token, *follow, *seeds); err != nil {
				return fail(err)
			}
			return 0
		}
		if *seeds > 1 {
			if err := runSweepSeeds(w, opts, *sweep, *policy, *cacheOut, *jsonOut, arts, *seeds); err != nil {
				return fail(err)
			}
			return 0
		}
		if err := runSweep(w, opts, *sweep, *policy, *cacheOut, arts); err != nil {
			return fail(err)
		}
		return 0
	}
	if *serverURL != "" {
		return fail(fmt.Errorf("-server requires -sweep (remote mode submits figure sweeps as batches)"))
	}
	if *seeds > 1 {
		return fail(fmt.Errorf("-seeds requires -sweep (seed replication runs figure sweeps)"))
	}
	if *md {
		if err := newSuite(opts, arts).WriteMarkdownReport(w); err != nil {
			return fail(err)
		}
		return 0
	}
	if *check {
		report, err := newSuite(opts, arts).RunShapeChecks()
		if err != nil {
			return fail(err)
		}
		fmt.Fprint(w, report)
		if !report.AllPassed() {
			return 1
		}
		return 0
	}
	if err := run(w, opts, *figure, *jsonOut, arts); err != nil {
		return fail(err)
	}
	return 0
}

// loadModelArtifacts reads the -model flag's comma-separated artifact
// files into a by-window map. Two artifacts for the same window is an
// error — which one serves RW-matched points would be load-order luck.
func loadModelArtifacts(list string) (map[int]*models.Artifact, error) {
	if list == "" {
		return nil, nil
	}
	arts := make(map[int]*models.Artifact)
	for _, path := range strings.Split(list, ",") {
		path = strings.TrimSpace(path)
		if path == "" {
			continue
		}
		art, err := models.LoadFile(path)
		if err != nil {
			return nil, err
		}
		if prev, ok := arts[art.Window]; ok && prev.Hash != art.Hash {
			return nil, fmt.Errorf("-model: two different artifacts for RW%d (%s vs %s)", art.Window, prev.Hash[:12], art.Hash[:12])
		}
		arts[art.Window] = art
	}
	return arts, nil
}

// runSweep evaluates a named figure sweep and optionally exports the
// results as a cache-warming artifact. Each point runs and is keyed as
// one normalized experiments.Spec — the identity pearld gives the
// equivalent job — so the exported keys collide with the server's and
// name exactly the runs behind their payloads.
func runSweep(w io.Writer, opts experiments.Options, name, policy, cacheOut string, arts map[int]*models.Artifact) error {
	specs, err := sweepSpecs(w, opts, name, policy, arts)
	if err != nil {
		return err
	}
	start := time.Now()
	results, err := experiments.RunSweep(context.Background(), specs)
	if err != nil {
		return fmt.Errorf("sweep %s: %w", name, err)
	}
	entries := make([]server.CacheEntry, len(specs))
	for i, spec := range specs {
		payload := server.ResultPayload(results[i])
		entries[i] = server.CacheEntry{Key: spec.Key(), Result: payload}
		fmt.Fprintf(w, "%-28s %-12s %10.2f bits/cycle  %8.2f pJ/bit  %s\n",
			spec.Label, payload.Pair, payload.ThroughputBitsPerCycle,
			payload.EnergyPerBitPJ, entries[i].Key)
	}
	fmt.Fprintf(w, "sweep %s: %d points in %v\n", name, len(specs), time.Since(start).Round(time.Millisecond))
	return writeCacheEntries(w, cacheOut, entries)
}

// errNoArtifact is sweepSpecs' model lookup failing: no -model artifact
// serves the point's reservation window.
var errNoArtifact = errors.New("no -model artifact")

// sweepSpecs expands a named sweep into normalized, bound specs: each
// point's config carries the run lengths, -policy overrides the
// photonic points, and model-needing points bind the -model artifact
// for their window (its content hash is pinned into the key, as pearld
// pins its registry's). Points no artifact can serve are skipped with
// a note, like a pearld sweep over a registry that cannot serve them.
func sweepSpecs(w io.Writer, opts experiments.Options, name, policy string, arts map[int]*models.Artifact) ([]experiments.Spec, error) {
	points, err := experiments.FigureSweep(name, opts.Pairs)
	if err != nil {
		return nil, err
	}
	override, _ := controller.Lookup(policy) // realMain validated -policy
	lookup := func(cfg config.Config) (*models.Artifact, error) {
		if art, ok := arts[cfg.ReservationWindow]; ok {
			return art, nil
		}
		return nil, fmt.Errorf("%w for RW%d", errNoArtifact, cfg.ReservationWindow)
	}
	specs := make([]experiments.Spec, 0, len(points))
	for _, p := range points {
		p.Config.WarmupCycles = int(opts.WarmupCycles)
		p.Config.MeasureCycles = int(opts.MeasureCycles)
		if policy != "" && p.Backend == experiments.BackendPEARL {
			p.Config.Power = override.Power
			// The row now runs the override, not the figure's original
			// policy — relabel so the table says so.
			p.Label = p.Config.Name()
		}
		spec := experiments.Spec{Point: p, Seed: opts.Seed}
		spec.Normalize()
		if _, err := spec.Bind(lookup); err != nil {
			if errors.Is(err, errNoArtifact) {
				fmt.Fprintf(w, "%-28s %-12s skipped: %v\n", p.Label, p.Pair.Name(), err)
				continue
			}
			return nil, fmt.Errorf("point %s: %w", p.Label, err)
		}
		specs = append(specs, spec)
	}
	return specs, nil
}

// writeCacheEntries writes a pearld cache-warming artifact; a no-op
// when -cache-out was not given.
func writeCacheEntries(w io.Writer, cacheOut string, entries []server.CacheEntry) error {
	if cacheOut == "" {
		return nil
	}
	f, err := os.Create(cacheOut)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", " ")
	if err := enc.Encode(entries); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %d cache entries to %s\n", len(entries), cacheOut)
	return nil
}

// runSweepSeeds is runSweep with every point run over n derived seeds,
// one independent run per seed (experiments.RunSeeds). Each point
// prints mean ± 95% CI over its seeds, and -cache-out exports one entry
// per (point, seed), keys matching what a pearld seeds:n batch would
// publish.
func runSweepSeeds(w io.Writer, opts experiments.Options, name, policy, cacheOut, jsonOut string, arts map[int]*models.Artifact, n int) error {
	specs, err := sweepSpecs(w, opts, name, policy, arts)
	if err != nil {
		return err
	}
	ctx := context.Background()
	start := time.Now()
	var entries []server.CacheEntry
	var bench []benchRecord
	for _, spec := range specs {
		p := spec.Point
		// Derive the member seeds exactly as pearld's seeds:n batches do:
		// from the normalized base seed, folding the point's canonical
		// name (not the sweep's display label) and the pair name, so the
		// exported per-seed cache keys collide with the server's.
		seeds := experiments.ReplicaSeeds(spec.Seed, p.Name(), p.Pair.Name(), n)

		pstart := time.Now()
		results, err := experiments.RunSeeds(ctx, p, spec.Options(), seeds)
		if err != nil {
			return fmt.Errorf("sweep %s point %s %s: %w", name, p.Label, p.Pair.Name(), err)
		}
		elapsed := time.Since(pstart)

		var tput, epb stats.Welford
		for i, res := range results {
			payload := server.ResultPayload(res)
			tput.Add(payload.ThroughputBitsPerCycle)
			epb.Add(payload.EnergyPerBitPJ)
			member := spec
			member.Seed = seeds[i]
			entries = append(entries, server.CacheEntry{Key: member.Key(), Result: payload})
		}
		fmt.Fprintf(w, "%-28s %-12s %10.2f ±%-6.2f bits/cycle  %8.2f ±%-5.2f pJ/bit  (n=%d, 95%% CI)\n",
			p.Label, p.Pair.Name(), tput.Mean(), tput.CI95(), epb.Mean(), epb.CI95(), n)
		bench = append(bench, benchRecord{
			Name:    fmt.Sprintf("sweep_%s_%s_%s_x%d", name, p.Label, p.Pair.Name(), n),
			Iters:   n,
			NsPerOp: float64(elapsed.Nanoseconds()) / float64(n),
		})
	}
	fmt.Fprintf(w, "sweep %s: %d points x %d seeds in %v\n",
		name, len(specs), n, time.Since(start).Round(time.Millisecond))
	if jsonOut != "" {
		if err := writeBenchJSON(jsonOut, bench); err != nil {
			return fmt.Errorf("writing %s: %w", jsonOut, err)
		}
	}
	return writeCacheEntries(w, cacheOut, entries)
}

// benchRecord is one artifact's machine-readable timing, mirroring the
// fields of a Go testing.B result so perf trajectories can be tracked
// across commits.
type benchRecord struct {
	Name       string  `json:"name"`
	Iters      int     `json:"iters"`
	NsPerOp    float64 `json:"ns_per_op"`
	BytesPerOp uint64  `json:"bytes_per_op"`
}

// writeBenchJSON writes the records as an indented JSON array.
func writeBenchJSON(path string, records []benchRecord) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", " ")
	if err := enc.Encode(records); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// newSuite builds the figure suite, seeding it with any -model
// artifacts so ML figures serve from them instead of training
// in-process.
func newSuite(opts experiments.Options, arts map[int]*models.Artifact) *experiments.Suite {
	suite := experiments.NewSuite(opts)
	for _, art := range arts {
		suite.SetModel(art)
	}
	return suite
}

// run prints the artifact named by figure ("all" prints every one), in
// the suite's paper order.
func run(w io.Writer, opts experiments.Options, figure, jsonOut string, arts map[int]*models.Artifact) error {
	matched := false
	var bench []benchRecord
	for _, a := range newSuite(opts, arts).Artifacts() {
		if figure != "all" && figure != a.Key {
			continue
		}
		matched = true
		var before runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		tbl, err := a.Fn()
		if err != nil {
			return fmt.Errorf("artifact %s: %w", a.Key, err)
		}
		elapsed := time.Since(start)
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		fmt.Fprintln(w, tbl)
		fmt.Fprintf(w, "(generated in %v)\n\n", elapsed.Round(time.Millisecond))
		bench = append(bench, benchRecord{
			Name:       "artifact_" + a.Key,
			Iters:      1,
			NsPerOp:    float64(elapsed.Nanoseconds()),
			BytesPerOp: after.TotalAlloc - before.TotalAlloc,
		})
	}
	if !matched {
		return fmt.Errorf("unknown artifact %q", figure)
	}
	if jsonOut != "" {
		if err := writeBenchJSON(jsonOut, bench); err != nil {
			return fmt.Errorf("writing %s: %w", jsonOut, err)
		}
	}
	return nil
}
