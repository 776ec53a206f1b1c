package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

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

// checkDir demands that a -cache-dir holds exactly one entry per spec,
// each in the file named by the spec's key and holding the Summary of a
// direct experiments.Run of the spec.
func checkDir(t *testing.T, dir string, specs []experiments.Spec) {
	t.Helper()
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != len(specs) {
		t.Fatalf("-cache-dir holds %d files for %d runs", len(files), len(specs))
	}
	for _, spec := range specs {
		data, err := os.ReadFile(filepath.Join(dir, spec.Key()+".json"))
		if err != nil {
			t.Errorf("%s %s seed %d: %v", spec.Name(), spec.Pair.Name(), spec.Seed, err)
			continue
		}
		var e server.CacheEntry
		if err := json.Unmarshal(data, &e); err != nil {
			t.Fatal(err)
		}
		res, err := experiments.Run(context.Background(), spec.Point, spec.Options())
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(experiments.Summarize(res))
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(e.Result)
		if err != nil {
			t.Fatal(err)
		}
		if e.Key != spec.Key() || !bytes.Equal(got, want) {
			t.Errorf("%s %s seed %d: stored entry %s\n%s\nwant the direct run's\n%s", spec.Name(), spec.Pair.Name(), spec.Seed, e.Key, got, want)
		}
	}
}

// TestSweepSeedZeroIsPaperSeed: `-seed 0 -cache-dir` stores entries
// under the seed-2018 keys, so each payload must be the seed-2018 run —
// on both backends (fig5 holds PEARL and CMESH points).
func TestSweepSeedZeroIsPaperSeed(t *testing.T) {
	dir := t.TempDir()
	opts := tinyOpts()
	if err := runSweep(io.Discard, opts, "fig5", "", dir, "", nil); err != nil {
		t.Fatal(err)
	}
	points, err := experiments.FigureSweep("fig5", opts.Pairs)
	if err != nil {
		t.Fatal(err)
	}
	specs := make([]experiments.Spec, len(points))
	for i, p := range points {
		p.Config.WarmupCycles, p.Config.MeasureCycles = 200, 2000
		specs[i] = experiments.Spec{Point: p, Seed: 2018}
	}
	checkDir(t, dir, specs)
}

// TestSweepSeedsSeedZeroIsPaperSeed: the replicated sweep derives its
// member seeds from 2018 at -seed 0, exactly as a pearld seeds:n batch
// does, and replica 0 is the seed-2018 run.
func TestSweepSeedsSeedZeroIsPaperSeed(t *testing.T) {
	dir := t.TempDir()
	opts := tinyOpts()
	const n = 2
	if err := runSweepSeeds(io.Discard, opts, "fig4", "", dir, "", nil, n); err != nil {
		t.Fatal(err)
	}
	points, err := experiments.FigureSweep("fig4", opts.Pairs)
	if err != nil {
		t.Fatal(err)
	}
	var specs []experiments.Spec
	for _, p := range points {
		p.Config.WarmupCycles, p.Config.MeasureCycles = 200, 2000
		for _, seed := range experiments.ReplicaSeeds(2018, p.Name(), p.Pair.Name(), n) {
			specs = append(specs, experiments.Spec{Point: p, Seed: seed})
		}
	}
	checkDir(t, dir, specs)
}

// TestSweepCacheDirIsPearldCacheDir: the file `-sweep fig4 -cache-dir`
// writes for its point is byte for byte the file a pearld -cache-dir
// writes for the equivalent job, and a pearld started on the sweep's
// directory answers that job as a 200 cache hit without simulating.
func TestSweepCacheDirIsPearldCacheDir(t *testing.T) {
	swept := t.TempDir()
	opts := tinyOpts()
	if err := runSweep(io.Discard, opts, "fig4", "", swept, "", nil); err != nil {
		t.Fatal(err)
	}
	pair := opts.Pairs[0]
	job := `{"preset":"pearl-dyn","workload":{"cpu":"` + pair.CPU.Name + `","gpu":"` + pair.GPU.Name +
		`"},"warmup_cycles":200,"measure_cycles":2000}`

	ran := t.TempDir()
	url := startDaemon(t, ran)
	code, st := submit(t, url, job)
	if code != http.StatusAccepted {
		t.Fatalf("submit to an empty cache: HTTP %d, want 202", code)
	}
	for deadline := time.Now().Add(30 * time.Second); st.State != string(server.StateDone); time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) || st.State == string(server.StateFailed) {
			t.Fatalf("job %s: %+v", st.ID, st)
		}
		getJSON(t, url+"/v1/jobs/"+st.ID, &st)
	}
	name := st.CacheKey + ".json"
	want, err := os.ReadFile(filepath.Join(ran, name))
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(swept, name))
	if err != nil {
		t.Fatalf("the sweep wrote no entry under the job's key: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("-sweep -cache-dir wrote\n%s\npearld -cache-dir wrote\n%s", got, want)
	}

	url = startDaemon(t, swept)
	if code, st := submit(t, url, job); code != http.StatusOK || !st.Cached {
		t.Fatalf("submit to the swept cache: HTTP %d, cached %v; want a 200 hit", code, st.Cached)
	}
	var m server.MetricsSnapshot
	getJSON(t, url+"/metrics", &m)
	if m.JobsStarted != 0 || m.CacheHits != 1 {
		t.Fatalf("swept cache: jobs_started %d, cache_hits %d; want 0 and 1", m.JobsStarted, m.CacheHits)
	}
}

// startDaemon serves a one-worker pearld on cacheDir for the test's
// life and returns its base URL.
func startDaemon(t *testing.T, cacheDir string) string {
	t.Helper()
	daemon, err := server.New(server.Options{Workers: 1, CacheDir: cacheDir})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(daemon)
	t.Cleanup(func() {
		ts.Close()
		daemon.Shutdown(context.Background())
	})
	return ts.URL
}

// submit POSTs a job and decodes its status.
func submit(t *testing.T, url, body string) (int, server.JobStatus) {
	t.Helper()
	resp, err := http.Post(url+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st server.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, st
}

// getJSON GETs url and decodes its JSON body into v.
func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
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

// TestSweepJSON: a one-seed -sweep writes its -json record too, one
// sweep_<name> entry with the points as iterations.
func TestSweepJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sw.json")
	var stdout, stderr bytes.Buffer
	if code := realMain([]string{"-sweep", "fig4", "-json", path}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit status %d; stderr:\n%s", code, stderr.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var recs []benchRecord
	if err := json.Unmarshal(data, &recs); err != nil {
		t.Fatal(err)
	}
	points := len(experiments.Quick().Pairs)
	if len(recs) != 1 || recs[0].Name != "sweep_fig4" || recs[0].Iters != points || recs[0].NsPerOp <= 0 {
		t.Fatalf("-json wrote %+v, want one sweep_fig4 record of %d iterations", recs, points)
	}
}

// TestProfileWriteError: a profile file that cannot take the profile
// fails the command, naming the error.
func TestProfileWriteError(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	for _, flag := range []string{"-cpuprofile", "-memprofile"} {
		var stdout, stderr bytes.Buffer
		if code := realMain([]string{"-figure", "t1", flag, "/dev/full"}, &stdout, &stderr); code != 1 {
			t.Errorf("%s /dev/full: exit status %d, want 1; stderr:\n%s", flag, code, stderr.String())
		}
		if !strings.Contains(stderr.String(), "pearlbench:") {
			t.Errorf("%s /dev/full: stderr %q names no error", flag, stderr.String())
		}
	}
}
