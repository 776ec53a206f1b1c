package server

import (
	"container/list"
	"net/http"
	"sync"
)

// resultCache is a content-addressed LRU of completed job results.
// Keys are experiments.Spec.Key digests, so any request that would run an
// identical simulation resolves without executing it. Results are
// immutable once stored; callers must not mutate returned payloads.
type resultCache struct {
	mu       sync.Mutex
	capacity int
	order    *list.List // front = most recently used; values are *cacheEntry
	entries  map[string]*list.Element
}

type cacheEntry struct {
	key    string
	result *JobResult
}

func newResultCache(capacity int) *resultCache {
	if capacity <= 0 {
		capacity = 1024
	}
	return &resultCache{
		capacity: capacity,
		order:    list.New(),
		entries:  make(map[string]*list.Element),
	}
}

// Get returns the cached entry for key, refreshing its recency. The
// entry's key is the string the cache holds, so a caller that keeps the
// key can keep that one copy instead of its own.
func (c *resultCache) Get(key string) (cacheEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return cacheEntry{}, false
	}
	c.order.MoveToFront(el)
	return *el.Value.(*cacheEntry), true
}

// Put stores a result, evicting the least recently used entry past
// capacity.
func (c *resultCache) Put(key string, result *JobResult) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		el.Value.(*cacheEntry).result = result
		c.order.MoveToFront(el)
		return
	}
	c.entries[key] = c.order.PushFront(&cacheEntry{key: key, result: result})
	for c.order.Len() > c.capacity {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).key)
	}
}

// Len reports the live entry count.
func (c *resultCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// handleCacheGet is GET /v1/cache/{key}: one result by its content
// hash, which stays reachable after its job's record is retired. It
// serves the full cache stack (memory, then disk) as a CacheEntry
// envelope — byte-compatible with the disk store's files, `-warm-cache`
// input and `pearlbench -cache-out` artifacts.
func (s *Server) handleCacheGet(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if !validCacheKey(key) {
		httpError(w, http.StatusBadRequest, "invalid cache key %q", key)
		return
	}
	hit, _, ok := s.lookup(key)
	if !ok {
		httpError(w, http.StatusNotFound, "no cached entry for %s", key)
		return
	}
	s.metrics.inc(&s.metrics.totals.CacheExports)
	writeJSON(w, http.StatusOK, CacheEntry{Key: key, Result: hit.result})
}
