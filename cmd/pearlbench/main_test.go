package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/server"
	"repro/internal/traffic"
)

// tinyOpts is one pair at tiny cycle counts, under the seed 0 that
// means the paper seed 2018.
func tinyOpts() experiments.Options {
	return experiments.Options{
		WarmupCycles:  200,
		MeasureCycles: 2000,
		Pairs:         traffic.TestPairs()[:1],
	}
}

// readEntries parses a -cache-out artifact.
func readEntries(t *testing.T, path string) []server.CacheEntry {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var entries []server.CacheEntry
	if err := json.Unmarshal(data, &entries); err != nil {
		t.Fatal(err)
	}
	return entries
}

// checkEntry demands that an exported entry is keyed as spec and holds
// the payload of a direct experiments.Run of spec.
func checkEntry(t *testing.T, e server.CacheEntry, spec experiments.Spec) {
	t.Helper()
	if key := spec.Key(); e.Key != key {
		t.Errorf("%s %s seed %d: exported key %s, want %s", spec.Name(), spec.Pair.Name(), spec.Seed, e.Key, key)
	}
	res, err := experiments.Run(context.Background(), spec.Point, spec.Options())
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(server.ResultPayload(res))
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(e.Result)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s %s seed %d: exported payload\n%s\nwant the direct run's\n%s", spec.Name(), spec.Pair.Name(), spec.Seed, got, want)
	}
}

// TestSweepSeedZeroIsPaperSeed: `-seed 0 -cache-out` exports entries
// whose keys are the seed-2018 keys, so each payload must be the
// seed-2018 run — on both backends (fig5 holds PEARL and CMESH points).
func TestSweepSeedZeroIsPaperSeed(t *testing.T) {
	out := filepath.Join(t.TempDir(), "warm.json")
	opts := tinyOpts()
	if err := runSweep(io.Discard, opts, "fig5", "", out, nil); err != nil {
		t.Fatal(err)
	}
	points, err := experiments.FigureSweep("fig5", opts.Pairs)
	if err != nil {
		t.Fatal(err)
	}
	entries := readEntries(t, out)
	if len(entries) != len(points) {
		t.Fatalf("exported %d entries for %d points", len(entries), len(points))
	}
	for i, p := range points {
		p.Config.WarmupCycles, p.Config.MeasureCycles = 200, 2000
		checkEntry(t, entries[i], experiments.Spec{Point: p, Seed: 2018})
	}
}

// TestSweepSeedsSeedZeroIsPaperSeed: the replicated sweep derives its
// member seeds from 2018 at -seed 0, exactly as a pearld seeds:n batch
// does, and replica 0 is the seed-2018 run.
func TestSweepSeedsSeedZeroIsPaperSeed(t *testing.T) {
	out := filepath.Join(t.TempDir(), "warm.json")
	opts := tinyOpts()
	const n = 2
	if err := runSweepSeeds(io.Discard, opts, "fig4", "", out, "", nil, n); err != nil {
		t.Fatal(err)
	}
	points, err := experiments.FigureSweep("fig4", opts.Pairs)
	if err != nil {
		t.Fatal(err)
	}
	entries := readEntries(t, out)
	if len(entries) != n*len(points) {
		t.Fatalf("exported %d entries for %d points x %d seeds", len(entries), len(points), n)
	}
	for i, p := range points {
		p.Config.WarmupCycles, p.Config.MeasureCycles = 200, 2000
		for j, seed := range experiments.ReplicaSeeds(2018, p.Name(), p.Pair.Name(), n) {
			checkEntry(t, entries[i*n+j], experiments.Spec{Point: p, Seed: seed})
		}
	}
}

// TestRunArtifactKeys: -figure picks from the suite's own artifact list,
// so an unknown key still fails and t5 prints Table V as it renders.
func TestRunArtifactKeys(t *testing.T) {
	if err := run(io.Discard, tinyOpts(), "nope", "", nil); err == nil || !strings.Contains(err.Error(), `unknown artifact "nope"`) {
		t.Fatalf("unknown key: error %v, want unknown artifact", err)
	}
	var out bytes.Buffer
	if err := run(&out, tinyOpts(), "t5", "", nil); err != nil {
		t.Fatal(err)
	}
	table, _, ok := strings.Cut(out.String(), "(generated in ")
	if want := experiments.TableV().String() + "\n"; !ok || table != want {
		t.Fatalf("-figure t5 printed\n%s\nwant\n%s", out.String(), want)
	}
}

// TestOutWriteError: an -out file that cannot take the report fails the
// command, naming the error, while stdout still gets the report.
func TestOutWriteError(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	var stdout, stderr bytes.Buffer
	if code := realMain([]string{"-figure", "t1", "-out", "/dev/full"}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit status %d, want 1; stderr:\n%s", code, stderr.String())
	}
	if want := "pearlbench: write /dev/full: no space left on device"; !strings.Contains(stderr.String(), want) {
		t.Errorf("stderr %q lacks %q", stderr.String(), want)
	}
	if stdout.Len() == 0 {
		t.Error("nothing printed to stdout")
	}
}

func TestBadFlag(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := realMain([]string{"-no-such-flag"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit status %d for an unknown flag, want 2", code)
	}
}
