package server

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
)

// testKey returns a syntactically valid content hash varying in its
// first characters.
func testKey(i int) string {
	const hexDigits = "0123456789abcdef"
	return strings.Repeat(string(hexDigits[i%16]), 2) + strings.Repeat("0", experiments.KeyLen-2)
}

func testResult(throughput float64) *JobResult {
	return &JobResult{
		Config:                 "PEARL-Dyn(64WL)",
		Pair:                   "fmm+DCT",
		ThroughputBitsPerCycle: throughput,
		StateResidency:         map[int]float64{8: 0.25, 64: 0.75},
	}
}

func TestDiskStoreRoundTrip(t *testing.T) {
	d, err := newDiskStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(1)

	if res, err := d.Get(key); err != nil || res != nil {
		t.Fatalf("empty store Get = (%v, %v), want (nil, nil)", res, err)
	}
	want := testResult(42.5)
	if err := d.Put(key, want); err != nil {
		t.Fatal(err)
	}
	got, err := d.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	if got == nil || got.ThroughputBitsPerCycle != want.ThroughputBitsPerCycle ||
		got.StateResidency[8] != want.StateResidency[8] {
		t.Fatalf("round trip: got %+v, want %+v", got, want)
	}
	if entries, bytes := d.stats(); entries != 1 || bytes <= 0 {
		t.Fatalf("stats = (%d, %d), want one sized entry", entries, bytes)
	}

	// Overwrites are atomic replacements, not duplicates.
	if err := d.Put(key, testResult(7)); err != nil {
		t.Fatal(err)
	}
	got, err = d.Get(key)
	if err != nil || got.ThroughputBitsPerCycle != 7 {
		t.Fatalf("after overwrite: (%+v, %v)", got, err)
	}
	if entries, _ := d.stats(); entries != 1 {
		t.Fatalf("overwrite left %d entries, want 1", entries)
	}
}

func TestDiskStoreRejectsInvalidKeys(t *testing.T) {
	d, err := newDiskStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"",
		"short",
		strings.Repeat("g", experiments.KeyLen), // non-hex
		strings.Repeat("A", experiments.KeyLen), // uppercase
		"../../../../etc/passwd",                // traversal
		strings.Repeat("0", experiments.KeyLen) + "0",   // too long
		strings.Repeat("0", experiments.KeyLen-1) + "/", // separator
	} {
		if _, err := d.Get(key); err == nil {
			t.Errorf("Get(%q) accepted an invalid key", key)
		}
		if err := d.Put(key, testResult(1)); err == nil {
			t.Errorf("Put(%q) accepted an invalid key", key)
		}
	}
}

func TestDiskStoreCorruptionTolerated(t *testing.T) {
	dir := t.TempDir()
	d, err := newDiskStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		data []byte
	}{
		{"empty file", nil},
		{"garbage", []byte("not json at all")},
		{"truncated json", []byte(`{"key":"` + testKey(2) + `","result":{"config":"PEA`)},
		{"wrong inner key", []byte(`{"key":"` + testKey(9) + `","result":{"config":"x"}}`)},
		{"missing result", []byte(`{"key":"` + testKey(2) + `"}`)},
		{"wrong type", []byte(`[1,2,3]`)},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			key := testKey(i + 2)
			if tc.name == "wrong inner key" {
				key = testKey(3) // file content claims testKey(9)
			}
			if err := os.WriteFile(filepath.Join(dir, key+".json"), tc.data, 0o644); err != nil {
				t.Fatal(err)
			}
			if res, err := d.Get(key); err == nil {
				t.Fatalf("corrupt entry served as %+v", res)
			}
			// The slot stays usable: a fresh Put repairs it.
			if err := d.Put(key, testResult(float64(i))); err != nil {
				t.Fatal(err)
			}
			if res, err := d.Get(key); err != nil || res == nil {
				t.Fatalf("after repair: (%+v, %v)", res, err)
			}
		})
	}
}

func TestDiskStoreOversizedEntryRejected(t *testing.T) {
	dir := t.TempDir()
	d, err := newDiskStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(4)
	big := make([]byte, maxEntryBytes+1)
	if err := os.WriteFile(filepath.Join(dir, key+".json"), big, 0o644); err != nil {
		t.Fatal(err)
	}
	if res, err := d.Get(key); err == nil {
		t.Fatalf("oversized entry served as %+v", res)
	}
}

func TestDiskStoreEvictsOldestPastCap(t *testing.T) {
	dir := t.TempDir()
	// Populate 6 entries uncapped with strictly increasing mtimes
	// (Chtimes sidesteps coarse filesystem timestamp granularity)...
	probe, err := newDiskStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := probe.Put(testKey(i), testResult(float64(i))); err != nil {
			t.Fatal(err)
		}
		mtime := time.Now().Add(time.Duration(i-6) * time.Minute)
		if err := os.Chtimes(filepath.Join(dir, testKey(i)+".json"), mtime, mtime); err != nil {
			t.Fatal(err)
		}
	}
	_, total := probe.stats()
	entryBytes := total / 6
	cap := 3*entryBytes + entryBytes/2

	// ...then reopen capped at ~3.5 entries: the startup sweep must
	// evict oldest-first down to the cap.
	d, err := newDiskStore(dir, cap)
	if err != nil {
		t.Fatal(err)
	}
	entries, bytes := d.stats()
	if bytes > cap {
		t.Fatalf("store holds %d bytes, cap %d", bytes, cap)
	}
	if entries >= 6 || entries == 0 {
		t.Fatalf("store holds %d entries after capped reopen, want ~3", entries)
	}
	// The newest entry must survive; the oldest must be gone.
	if res, err := d.Get(testKey(5)); err != nil || res == nil {
		t.Fatalf("newest entry evicted: (%+v, %v)", res, err)
	}
	if res, err := d.Get(testKey(0)); err != nil || res != nil {
		t.Fatalf("oldest entry survived eviction: (%+v, %v)", res, err)
	}
}

// TestDiskStoreEvictionIsLRUNotFIFO: a Get must refresh the entry's
// eviction age. The oldest-written entry is read (hot) and must
// survive the capped reopen, while an unread newer entry is evicted —
// without the touch, eviction orders by write age and throws out the
// store's most useful entries.
func TestDiskStoreEvictionIsLRUNotFIFO(t *testing.T) {
	dir := t.TempDir()
	probe, err := newDiskStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := probe.Put(testKey(i), testResult(float64(i))); err != nil {
			t.Fatal(err)
		}
		mtime := time.Now().Add(time.Duration(i-5) * time.Minute)
		if err := os.Chtimes(filepath.Join(dir, testKey(i)+".json"), mtime, mtime); err != nil {
			t.Fatal(err)
		}
	}
	// testKey(0) is the oldest write; reading it marks it hot.
	if res, err := probe.Get(testKey(0)); err != nil || res == nil {
		t.Fatalf("reading hot entry: (%+v, %v)", res, err)
	}
	_, total := probe.stats()
	entryBytes := total / 4
	cap := 3*entryBytes + entryBytes/2

	// Reopen capped at ~3.5 entries: exactly one entry must go, and it
	// must be the coldest — testKey(1) — not the oldest-written hot one.
	d, err := newDiskStore(dir, cap)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := d.Get(testKey(0)); err != nil || res == nil {
		t.Fatalf("hot entry evicted (FIFO, not LRU): (%+v, %v)", res, err)
	}
	if res, err := d.Get(testKey(1)); err != nil || res != nil {
		t.Fatalf("coldest entry survived eviction: (%+v, %v)", res, err)
	}
}

// TestDiskStoreSameMtimeEvictionDeterministic: on filesystems with
// coarse timestamps a burst of writes lands with one shared mtime, and
// an eviction ordered purely by mtime picks victims within the tied
// group by sort-internal accident — daemons sharing a warmed cache
// directory would shed different entries. Ties must break on the
// content key: of a tied-oldest group, the evicted entries are exactly
// the lexicographically smallest keys.
func TestDiskStoreSameMtimeEvictionDeterministic(t *testing.T) {
	dir := t.TempDir()
	probe, err := newDiskStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	const n = 16
	// Even keys form the tied-oldest group (one coarse-fs timestamp);
	// odd keys are newer with distinct mtimes. Interleaving them in key
	// (= directory scan) order means a pure-mtime sort really has to
	// move elements, exposing any order the comparator leaves undefined.
	tied := time.Now().Add(-time.Hour)
	for i := 0; i < n; i++ {
		if err := probe.Put(testKey(i), testResult(1)); err != nil {
			t.Fatal(err)
		}
		mtime := tied
		if i%2 == 1 {
			mtime = tied.Add(time.Duration(i) * time.Minute)
		}
		if err := os.Chtimes(filepath.Join(dir, testKey(i)+".json"), mtime, mtime); err != nil {
			t.Fatal(err)
		}
	}
	_, total := probe.stats()
	entryBytes := total / n
	cap := total - 4*entryBytes + entryBytes/2

	// Reopen capped to force out exactly 4 entries: they must be the 4
	// smallest-keyed members of the tied-oldest group — testKey(0), (2),
	// (4), (6) — not whichever tied entries the sort happened to leave
	// in front.
	d, err := newDiskStore(dir, cap)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		res, err := d.Get(testKey(i))
		if err != nil {
			t.Fatal(err)
		}
		wantKept := i%2 == 1 || i >= 8
		if kept := res != nil; kept != wantKept {
			t.Errorf("entry %s (rank %d): kept=%v, want %v", testKey(i), i, kept, wantKept)
		}
	}
}

// TestDiskStoreTouchFailuresSurfaceInMetrics pins the /metrics plumbing
// for the Get-path recency-touch counter: what the store counts is what
// the endpoint reports (zero on a healthy store).
func TestDiskStoreTouchFailuresSurfaceInMetrics(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 4, CacheDir: t.TempDir()})
	var m MetricsSnapshot
	getJSON(t, ts.URL+"/metrics", &m)
	if m.CacheDiskTouchFailures != 0 {
		t.Fatalf("fresh store reports %d touch failures", m.CacheDiskTouchFailures)
	}
	s.disk.touchFails.Add(3)
	getJSON(t, ts.URL+"/metrics", &m)
	if m.CacheDiskTouchFailures != 3 {
		t.Fatalf("metrics report %d touch failures, want 3", m.CacheDiskTouchFailures)
	}
}

func TestDiskStoreSweepsStaleTempFiles(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "put-123.tmp"), []byte("half a write"), 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := newDiskStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if entries, _ := d.stats(); entries != 0 {
		t.Fatalf("temp file counted as %d entries", entries)
	}
	if _, err := os.Stat(filepath.Join(dir, "put-123.tmp")); !os.IsNotExist(err) {
		t.Fatalf("stale temp file not swept: %v", err)
	}
}

// FuzzDiskCacheLoad feeds arbitrary bytes through the disk-cache load
// path: whatever is on disk, Get must return a wrapped error or a
// valid entry — never panic, and never serve a result whose embedded
// key disagrees with the file name.
func FuzzDiskCacheLoad(f *testing.F) {
	valid, err := encodeCacheEntry(CacheEntry{Key: testKey(5), Result: testResult(1)})
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte{})
	f.Add([]byte("not json"))
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte(`{"key":"` + testKey(7) + `","result":null}`))
	f.Add([]byte(`{"key":12,"result":{}}`))
	f.Add([]byte(`null`))

	dir, err := os.MkdirTemp("", "fuzz-diskcache-*")
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { os.RemoveAll(dir) })
	d, err := newDiskStore(dir, 0)
	if err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		key := testKey(5)
		if err := os.WriteFile(d.path(key), data, 0o644); err != nil {
			t.Skip()
		}
		res, err := d.Get(key)
		if err != nil {
			return // corrupt input surfaced as an error: correct
		}
		if res == nil {
			t.Fatalf("Get returned (nil, nil) for an existing file (%d bytes)", len(data))
		}
		// A nil error means the bytes decoded into a validated entry
		// whose key matches; spot-check that claim.
		entry, decErr := decodeCacheEntry(data)
		if decErr != nil || entry.Key != key {
			t.Fatalf("Get accepted bytes decodeCacheEntry rejects (err %v, key %q)", decErr, entry.Key)
		}
	})
}
