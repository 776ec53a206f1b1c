package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"testing"
	"time"
)

// TestCacheKeyPinned pins literal cache keys. On-disk caches (pearld's
// and `pearlbench -sweep -cache-dir`'s) and GET /v1/cache/{key} address
// results by these digests,
// so any drift in how a spec is rendered for hashing must fail here
// first. The last case is a pearl request at link scale 4: the photonic
// network has no link scale, so it shares the default request's key.
func TestCacheKeyPinned(t *testing.T) {
	s := newBareServer(t, Options{Workers: 1})
	for _, tc := range []struct{ body, key string }{
		{quickJob, "5453dd3961bea7fe7ad6a23241e86691"},
		{`{"backend":"cmesh","link_scale":4,"workload":{"cpu":"fmm","gpu":"DCT"},"warmup_cycles":200,"measure_cycles":2000}`,
			"370798f1a73295b9adda046049a09ac0"},
		{`{"preset":"dyn-rw2000","policy":"proteus","seed":77,"workload":{"cpu":"x264","gpu":"Reduction"},"config":{"CPUUpperBound":0.2,"Thresholds":{"Lower":0.001,"MidLower":0.07,"MidUpper":0.2,"Upper":0.9}},"warmup_cycles":300,"measure_cycles":3000}`,
			"d94a79c15d98cec19472ca7a5f1d5433"},
		{`{"backend":"pearl","link_scale":4,"workload":{"cpu":"fmm","gpu":"DCT"},"warmup_cycles":200,"measure_cycles":2000}`,
			"5453dd3961bea7fe7ad6a23241e86691"},
	} {
		if got := resolveSpec(t, s, tc.body).Key(); got != tc.key {
			t.Errorf("cache key %s, pinned %s, for %s", got, tc.key, tc.body)
		}
	}
}

// TestPearlIgnoresLinkScale: a pearl resubmission at link scale 4 after
// one at scale 1 is a cache hit under the same key with a byte-equal
// result, and the spec's own key agrees; cmesh keys still differ per
// scale.
func TestPearlIgnoresLinkScale(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1})
	const at = `{"backend":"pearl","link_scale":%d,"workload":{"cpu":"fmm","gpu":"DCT"},"warmup_cycles":200,"measure_cycles":2000}`
	code, first := postJob(t, ts, fmt.Sprintf(at, 1))
	if code != http.StatusAccepted {
		t.Fatalf("scale-1 submit: HTTP %d", code)
	}
	pollUntil(t, ts, first.ID, func(st JobStatus) bool { return st.State == string(StateDone) }, 30*time.Second)
	code, again := postJob(t, ts, fmt.Sprintf(at, 4))
	if code != http.StatusOK || !again.Cached || again.CacheKey != first.CacheKey {
		t.Fatalf("scale-4 resubmit: HTTP %d cached=%v key %s, want a 200 hit under %s",
			code, again.Cached, again.CacheKey, first.CacheKey)
	}
	a := getRaw(t, ts.URL+"/v1/jobs/"+first.ID+"/result")
	b := getRaw(t, ts.URL+"/v1/jobs/"+again.ID+"/result")
	if !bytes.Equal(a, b) {
		t.Fatalf("results differ:\nscale 1: %s\nscale 4: %s", a, b)
	}
	spec := resolveSpec(t, s, quickJob)
	spec.LinkScale = 4
	if got := spec.Key(); got != first.CacheKey {
		t.Fatalf("Spec key at pearl link scale 4 = %s, want %s", got, first.CacheKey)
	}

	seen := map[string]int{}
	for _, scale := range []int{1, 2, 4} {
		key := resolveSpec(t, s, fmt.Sprintf(`{"backend":"cmesh","link_scale":%d,"workload":{"cpu":"fmm","gpu":"DCT"}}`, scale)).Key()
		if prev, dup := seen[key]; dup {
			t.Fatalf("cmesh link scales %d and %d share key %s", prev, scale, key)
		}
		seen[key] = scale
	}
}

// TestFormatIDMatchesFmt compares formatID with the fmt rendering it
// replaced, which is kept here only as the reference.
func TestFormatIDMatchesFmt(t *testing.T) {
	for _, prefix := range []string{jobIDPrefix, batchIDPrefix, ""} {
		for _, n := range []uint64{0, 1, 42, 999_999, 1_000_000, 10_000_000, math.MaxUint64} {
			if got, want := formatID(prefix, n), fmt.Sprintf("%s%06d", prefix, n); got != want {
				t.Errorf("formatID(%q, %d) = %q, fmt reference %q", prefix, n, got, want)
			}
		}
	}
}

// TestCMESHIgnoresPhotonicConfig: the electrical mesh reads only the
// buffer slots and run lengths of its configuration, so cmesh requests
// that differ only in photonic fields share one key, coalesce onto one
// simulation and return byte-equal results, while a buffer-slot
// override is a different key.
func TestCMESHIgnoresPhotonicConfig(t *testing.T) {
	s := newBareServer(t, Options{Workers: 1, QueueDepth: 8})
	const at = `{"backend":"cmesh",%s"workload":{"cpu":"fmm","gpu":"DCT"},"warmup_cycles":200,"measure_cycles":2000}`
	variants := []string{``, `"preset":"dyn-rw500",`, `"preset":"static-16",`, `"policy":"proteus",`}
	blocker := pin(t, s, "")
	var ids []string
	var key string
	for i, v := range variants {
		body := fmt.Sprintf(at, v)
		code, data := call(s, http.MethodPost, "/v1/jobs", "", body)
		var st JobStatus
		if err := json.Unmarshal(data, &st); err != nil || code != http.StatusAccepted {
			t.Fatalf("POST %s: HTTP %d: %.300s", body, code, data)
		}
		if i == 0 {
			key = st.CacheKey
		} else if st.CacheKey != key || !st.Coalesced {
			t.Fatalf("%s: key %s coalesced=%v, want a follower under %s", body, st.CacheKey, st.Coalesced, key)
		}
		ids = append(ids, st.ID)
	}
	cancelJob(t, s, "", blocker)
	awaitJobs(t, s, terminal, ids...)
	var first []byte
	for _, id := range ids {
		code, res := call(s, http.MethodGet, "/v1/jobs/"+id+"/result", "", "")
		if code != http.StatusOK {
			t.Fatalf("result %s: HTTP %d: %.300s", id, code, res)
		}
		if first == nil {
			first = res
		} else if !bytes.Equal(res, first) {
			t.Fatalf("results differ:\n%s\n%s", first, res)
		}
	}
	if got := resolveSpec(t, s, fmt.Sprintf(at, `"config":{"CPUBufferSlots":32},`)).Key(); got == key {
		t.Fatalf("a cmesh buffer-slot override kept the default key %s", key)
	}
}
