package server

import (
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Retention bounds what a long-lived daemon holds. Pending and running
// jobs are always kept; so is every member of a batch that has not
// settled. A job is filed for retirement exactly once, when it is both
// registered and terminal: a cache hit at registration (it is born
// terminal), any other job through subscribe, and a batch member when
// its whole batch settles. Settled batches are filed the same way. Past
// retainedRecords filed jobs, or settled batches with more members than
// that between them, the oldest filed record is forgotten.
//
// Ids are sequential, so a record its table no longer holds but whose
// number the table's id counter has passed was retired: it answers 410
// Gone, and no tombstone is kept. A done job's result stays reachable
// by the cache_key its status carried, at GET /v1/cache/{key}, for as
// long as the result cache holds it.

// retainedRecords bounds the settled job records the job table keeps, and
// the summed member count of the settled batches the batch table keeps.
const retainedRecords = 4096

// Id prefixes; a record's id is its prefix and its counter value in
// decimal, zero-padded to at least six digits.
const (
	jobIDPrefix   = "job-"
	batchIDPrefix = "batch-"
)

// formatID renders the id of record n: the prefix, then n in decimal,
// zero-padded to six digits.
func formatID(prefix string, n uint64) string {
	var digits, buf [24]byte
	d := strconv.AppendUint(digits[:0], n, 10)
	b := append(buf[:0], prefix...)
	b = append(b, "000000"[min(len(d), 6):]...)
	return string(append(b, d...))
}

// issued reports whether id is one formatID(prefix, n) has produced for
// some n the counter has reached.
func issued(id, prefix string, counter uint64) bool {
	digits, ok := strings.CutPrefix(id, prefix)
	if !ok {
		return false
	}
	n, err := strconv.ParseUint(digits, 10, 64)
	return err == nil && n >= 1 && n <= counter && formatID(prefix, n) == id
}

// fifo is a queue on a ring buffer that grows as needed.
type fifo[T any] struct {
	buf  []T
	head int
	n    int
}

func (q *fifo[T]) push(v T) {
	if q.n == len(q.buf) {
		grown := make([]T, max(16, 2*len(q.buf)))
		for i := 0; i < q.n; i++ {
			grown[i] = q.buf[(q.head+i)%len(q.buf)]
		}
		q.buf, q.head = grown, 0
	}
	q.buf[(q.head+q.n)%len(q.buf)] = v
	q.n++
}

// pop removes the oldest element; the queue must not be empty.
func (q *fifo[T]) pop() T {
	var zero T
	v := q.buf[q.head]
	q.buf[q.head] = zero
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	return v
}

// rebuilt copies m into a map sized for its live entries. A Go map
// never shrinks, and one that keeps a steady size under deletes and
// inserts fills with deleted slots and splits its tables: over 100,000
// cache hits the job table's map grew by 220 KB, 11% of the daemon's
// live heap, before it levelled off. Rebuilding after every
// retainedRecords retirements costs one copy per retirement.
func rebuilt[V any](m map[string]V) map[string]V {
	fresh := make(map[string]V, len(m))
	for k, v := range m {
		fresh[k] = v
	}
	return fresh
}

// table is an id -> record table: one holds the jobs, one the batches.
// It issues its records' ids and holds every record that has not
// settled and the most recently settled ones: filed lists those in
// settle order, weight sums their retirement weights, and retired
// counts the ones forgotten.
type table[T record] struct {
	prefix string        // the ids' prefix
	kind   string        // "job" or "batch", as 404 and 410 bodies name it
	gone   string        // what a 410 body says outlives a retired record
	ids    atomic.Uint64 // the number of the last id issued

	mu      sync.Mutex
	byID    map[string]T
	filed   fifo[T]
	weight  int
	retired uint64
}

// record is what a table holds. A job retires with weight 1, a batch
// with its member count: the settled batches a table keeps hold at most
// retainedRecords members between them.
type record interface {
	recordID() string
	retireWeight() int
}

func (j *Job) recordID() string  { return j.ID }
func (j *Job) retireWeight() int { return 1 }

func (b *Batch) recordID() string  { return b.ID }
func (b *Batch) retireWeight() int { return b.size() }

func newTable[T record](prefix, kind, gone string) *table[T] {
	return &table[T]{prefix: prefix, kind: kind, gone: gone, byID: make(map[string]T)}
}

// newID issues the next id. It counts as issued from here on, before
// its record is added; in that gap it reads as retired, but no client
// has been given it yet.
func (t *table[T]) newID() string {
	return formatID(t.prefix, t.ids.Add(1))
}

// add registers v under its id.
func (t *table[T]) add(v T) {
	t.mu.Lock()
	t.byID[v.recordID()] = v
	t.mu.Unlock()
}

// get looks a record up by id.
func (t *table[T]) get(id string) (T, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	v, ok := t.byID[id]
	return v, ok
}

// snapshot copies the held records out from under the lock.
func (t *table[T]) snapshot() []T {
	t.mu.Lock()
	defer t.mu.Unlock()
	vs := make([]T, 0, len(t.byID))
	for _, v := range t.byID {
		vs = append(vs, v)
	}
	return vs
}

// settled files a settled record, first retiring the oldest filed ones
// while the filed weight, v's included, would be above retainedRecords.
func (t *table[T]) settled(v T) {
	w := v.retireWeight()
	t.mu.Lock()
	for t.filed.n > 0 && t.weight+w > retainedRecords {
		old := t.filed.pop()
		t.weight -= old.retireWeight()
		delete(t.byID, old.recordID())
		if t.retired++; t.retired%retainedRecords == 0 {
			t.byID = rebuilt(t.byID)
		}
	}
	t.filed.push(v)
	t.weight += w
	t.mu.Unlock()
}

// retention reports the records held and the settled ones retired.
func (t *table[T]) retention() (held int, retired uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.byID), t.retired
}

// resolve finds the record a route's {id} names, answering 404 for an
// id never issued and 410 for one issued and since retired.
func (t *table[T]) resolve(w http.ResponseWriter, r *http.Request) (T, bool) {
	id := r.PathValue("id")
	v, ok := t.get(id)
	switch {
	case ok:
	case issued(id, t.prefix, t.ids.Load()):
		httpError(w, http.StatusGone, "%s %s was retired; %s", t.kind, id, t.gone)
	default:
		httpError(w, http.StatusNotFound, "no such %s", t.kind)
	}
	return v, ok
}

// register adds a job to the job table and files it once it is terminal:
// subscribe runs the filing inline for a cache hit, which is born
// terminal. A batch member (b non-nil) is filed by settleBatch instead.
func (s *Server) register(job *Job, b *Batch) {
	s.reg.add(job)
	if b == nil {
		job.subscribe(s.reg.settled)
	}
}

// settleBatch files a batch whose every member is terminal, its members
// first, so none of them is retired while the batch is still live.
func (s *Server) settleBatch(b *Batch) {
	for _, j := range b.snapshotJobs() {
		s.reg.settled(j)
	}
	s.batches.settled(b)
}
