package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/experiments"
)

// CacheEntry is the on-disk / warm-artifact envelope for one cached
// result: the job's content-address plus its payload. The same shape is
// written by the disk cache, exported by `pearlbench -cache-out`, and
// accepted by `pearld -warm-cache`.
type CacheEntry struct {
	Key    string     `json:"key"`
	Result *JobResult `json:"result"`
}

// validCacheKey reports whether s looks like one of our content
// addresses: exactly 32 lowercase hex characters. Everything the disk
// store touches is gated on this, so a corrupt or adversarial artifact
// can never escape the cache directory or alias another entry.
func validCacheKey(s string) bool {
	if len(s) != experiments.KeyLen {
		return false
	}
	for _, c := range s {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// validate reports the first structural problem with the entry.
func (e CacheEntry) validate() error {
	if !validCacheKey(e.Key) {
		return fmt.Errorf("invalid cache key %q", e.Key)
	}
	if e.Result == nil {
		return errors.New("entry has no result")
	}
	return nil
}

// maxEntryBytes bounds one serialized cache entry; anything larger is
// treated as corrupt rather than loaded into memory.
const maxEntryBytes = 1 << 20

// decodeCacheEntry parses and validates one serialized entry.
func decodeCacheEntry(data []byte) (CacheEntry, error) {
	if len(data) > maxEntryBytes {
		return CacheEntry{}, fmt.Errorf("entry is %d bytes (limit %d)", len(data), maxEntryBytes)
	}
	var e CacheEntry
	if err := json.Unmarshal(data, &e); err != nil {
		return CacheEntry{}, fmt.Errorf("decoding entry: %w", err)
	}
	if err := e.validate(); err != nil {
		return CacheEntry{}, err
	}
	return e, nil
}

// encodeCacheEntry serializes the entry deterministically (encoding/json
// emits struct fields in declaration order and sorts map keys), so two
// runs of the same point write byte-identical files.
func encodeCacheEntry(e CacheEntry) ([]byte, error) {
	data, err := json.Marshal(e)
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// diskStore is the persistent layer under the in-memory LRU: one JSON
// file per content hash, written atomically (temp file + rename in the
// same directory) so a crash mid-write never leaves a partial entry
// under a live key. Loads are corruption-tolerant: a truncated,
// mangled or mis-keyed file is a wrapped error the caller treats as a
// miss, never a panic or garbage served as a result. Total footprint is
// capped; the oldest entries (by mtime, content key breaking ties) are
// evicted past the cap.
type diskStore struct {
	dir      string
	maxBytes int64
	mu       sync.Mutex
	// touchFails counts Get-path os.Chtimes failures. A failed touch is
	// still best-effort (the hit is served), but silently dropping the
	// error hides a cache directory drifting toward FIFO eviction —
	// /metrics surfaces the count instead.
	touchFails atomic.Uint64
}

// defaultDiskCacheBytes caps the disk cache when Options leaves it 0.
const defaultDiskCacheBytes = 256 << 20

func newDiskStore(dir string, maxBytes int64) (*diskStore, error) {
	if maxBytes <= 0 {
		maxBytes = defaultDiskCacheBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("disk cache: creating %s: %w", dir, err)
	}
	d := &diskStore{dir: dir, maxBytes: maxBytes}
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.evictLocked(); err != nil {
		return nil, err
	}
	return d, nil
}

func (d *diskStore) path(key string) string {
	return filepath.Join(d.dir, key+".json")
}

// Get loads the entry for key. A missing file is (nil, nil); a
// present-but-unreadable one is a wrapped error the caller should
// count and treat as a miss.
func (d *diskStore) Get(key string) (*JobResult, error) {
	if !validCacheKey(key) {
		return nil, fmt.Errorf("disk cache: invalid key %q", key)
	}
	info, err := os.Stat(d.path(key))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("disk cache: stat %s: %w", key, err)
	}
	if info.Size() > maxEntryBytes {
		return nil, fmt.Errorf("disk cache: entry %s is %d bytes (limit %d)", key, info.Size(), maxEntryBytes)
	}
	data, err := os.ReadFile(d.path(key))
	if err != nil {
		return nil, fmt.Errorf("disk cache: reading %s: %w", key, err)
	}
	entry, err := decodeCacheEntry(data)
	if err != nil {
		return nil, fmt.Errorf("disk cache: entry %s: %w", key, err)
	}
	if entry.Key != key {
		return nil, fmt.Errorf("disk cache: file %s holds entry keyed %q (corrupt or misplaced)", key, entry.Key)
	}
	// Eviction orders by mtime, so a hit must refresh it — otherwise
	// constantly-read entries are evicted by write age (FIFO, not LRU).
	// Best-effort: a failed touch (e.g. a concurrent eviction) costs
	// recency, not correctness — but it is counted, so a store whose
	// recency tracking is silently broken shows up in /metrics.
	now := time.Now()
	if err := os.Chtimes(d.path(key), now, now); err != nil {
		d.touchFails.Add(1)
	}
	return entry.Result, nil
}

// touchFailures reports how many Get-path recency touches have failed
// since boot.
func (d *diskStore) touchFailures() uint64 { return d.touchFails.Load() }

// Put persists the result under key via write-to-temp + atomic rename,
// then enforces the size cap.
func (d *diskStore) Put(key string, result *JobResult) error {
	entry := CacheEntry{Key: key, Result: result}
	if err := entry.validate(); err != nil {
		return fmt.Errorf("disk cache: %w", err)
	}
	data, err := encodeCacheEntry(entry)
	if err != nil {
		return fmt.Errorf("disk cache: encoding %s: %w", key, err)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	tmp, err := os.CreateTemp(d.dir, "put-*.tmp")
	if err != nil {
		return fmt.Errorf("disk cache: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("disk cache: writing %s: %w", key, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("disk cache: writing %s: %w", key, err)
	}
	if err := os.Rename(tmp.Name(), d.path(key)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("disk cache: committing %s: %w", key, err)
	}
	return d.evictLocked()
}

// entryInfo is one on-disk entry's eviction bookkeeping.
type entryInfo struct {
	path    string
	key     string
	size    int64
	modTime int64
}

// scanLocked lists the store's entry files (and sweeps stale temp
// files from interrupted writes).
func (d *diskStore) scanLocked() ([]entryInfo, error) {
	dirents, err := os.ReadDir(d.dir)
	if err != nil {
		return nil, fmt.Errorf("disk cache: scanning %s: %w", d.dir, err)
	}
	var entries []entryInfo
	for _, de := range dirents {
		if de.IsDir() {
			continue
		}
		name := de.Name()
		if filepath.Ext(name) == ".tmp" {
			os.Remove(filepath.Join(d.dir, name))
			continue
		}
		key := name[:max(0, len(name)-len(".json"))]
		if !validCacheKey(key) || filepath.Ext(name) != ".json" {
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue
		}
		entries = append(entries, entryInfo{
			path:    filepath.Join(d.dir, name),
			key:     key,
			size:    info.Size(),
			modTime: info.ModTime().UnixNano(),
		})
	}
	return entries, nil
}

// evictLocked removes oldest-first entries until the store fits
// maxBytes. Entries sharing an mtime (coarse-mtime filesystems round
// same-second writes together) order by content key, so which entry an
// over-full store sheds is deterministic across daemons instead of
// following directory scan order.
func (d *diskStore) evictLocked() error {
	entries, err := d.scanLocked()
	if err != nil {
		return err
	}
	var total int64
	for _, e := range entries {
		total += e.size
	}
	if total <= d.maxBytes {
		return nil
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].modTime != entries[j].modTime {
			return entries[i].modTime < entries[j].modTime
		}
		return entries[i].key < entries[j].key
	})
	for _, e := range entries {
		if total <= d.maxBytes {
			break
		}
		if err := os.Remove(e.path); err == nil {
			total -= e.size
		}
	}
	return nil
}

// stats reports the live entry count and byte footprint.
func (d *diskStore) stats() (entries int, bytes int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	list, err := d.scanLocked()
	if err != nil {
		return 0, 0
	}
	for _, e := range list {
		bytes += e.size
	}
	return len(list), bytes
}
