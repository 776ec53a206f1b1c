package server

import (
	"net/http"
	"testing"
)

// TestCacheExchangeEndpoints covers GET /v1/cache/{key}, where a result
// stays reachable by content hash after its job record is retired, and
// pins that the cache has no write endpoint: entries arrive by running
// or through -warm-cache.
func TestCacheExchangeEndpoints(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1, TenantsFile: writeTenantsFile(t, testTenants)})
	get := func(key string) (int, []byte) {
		resp, body := authedDo(t, http.MethodGet, ts.URL+"/v1/cache/"+key, "tok-bob", "")
		return resp.StatusCode, body
	}

	if code, _ := get("not-a-key"); code != http.StatusBadRequest {
		t.Fatalf("invalid key GET: HTTP %d, want 400", code)
	}
	key := testKey(1)
	if code, _ := get(key); code != http.StatusNotFound {
		t.Fatalf("missing entry GET: HTTP %d, want 404", code)
	}
	if m := snapshotMetrics(t, ts); m.CacheExports != 0 {
		t.Fatalf("a 400 and a 404 counted %d exports, want 0", m.CacheExports)
	}

	want := testResult(42)
	s.store(key, want)
	code, body := get(key)
	if code != http.StatusOK {
		t.Fatalf("cached entry GET: HTTP %d: %s", code, body)
	}
	// The body is a -warm-cache entry: the same validation accepts it.
	got, err := decodeCacheEntry(body)
	if err != nil {
		t.Fatalf("exported entry fails -warm-cache validation: %v\n%s", err, body)
	}
	if got.Key != key || got.Result.ThroughputBitsPerCycle != want.ThroughputBitsPerCycle {
		t.Fatalf("export drifted: key %s throughput %v, want %s %v",
			got.Key, got.Result.ThroughputBitsPerCycle, key, want.ThroughputBitsPerCycle)
	}
	if m := snapshotMetrics(t, ts); m.CacheExports != 1 {
		t.Fatalf("cache_entries_exported = %d after one hit, want 1", m.CacheExports)
	}

	// An authorised write to the collection matches no route.
	entry, err := encodeCacheEntry(CacheEntry{Key: testKey(2), Result: want})
	if err != nil {
		t.Fatal(err)
	}
	if resp, body := authedDo(t, http.MethodPost, ts.URL+"/v1/cache", "tok-bob", string(entry)); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("POST /v1/cache: HTTP %d, want 404: %s", resp.StatusCode, body)
	}
	if _, _, ok := s.lookup(testKey(2)); ok {
		t.Fatal("POST /v1/cache stored an entry")
	}
}
