package server

import (
	"net/http"
	"strconv"
	"strings"
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
// Ids are sequential, so a record the registry no longer holds but
// whose number the id counter has passed was retired: it answers 410
// Gone, and no tombstone is kept. A done job's result stays reachable
// by the cache_key its status carried, at GET /v1/cache/{key}, for as
// long as the result cache holds it.

// retainedRecords bounds the settled job records the registry keeps, and
// the summed member count of the settled batches the batch registry
// keeps.
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
// cache hits the registry's map grew by 220 KB, 11% of the daemon's
// live heap, before it levelled off. Rebuilding after every
// retainedRecords retirements costs one copy per retirement.
func rebuilt[V any](m map[string]V) map[string]V {
	fresh := make(map[string]V, len(m))
	for k, v := range m {
		fresh[k] = v
	}
	return fresh
}

// settled files a registered terminal job, first retiring the oldest
// filed jobs so that at most retainedRecords stay filed.
func (r *registry) settled(j *Job) {
	r.mu.Lock()
	for r.filed.n >= retainedRecords {
		delete(r.jobs, r.filed.pop().ID)
		if r.retired++; r.retired%retainedRecords == 0 {
			r.jobs = rebuilt(r.jobs)
		}
	}
	r.filed.push(j)
	r.mu.Unlock()
}

// retention reports the job records held and the settled ones retired.
func (r *registry) retention() (held int, retired uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.jobs), r.retired
}

// settled files a settled batch, then retires the oldest filed batches
// while their summed member count is above retainedRecords.
func (r *batchRegistry) settled(b *Batch) {
	n := b.size()
	r.mu.Lock()
	r.filed.push(b)
	r.members += n
	for r.members > retainedRecords {
		old := r.filed.pop()
		r.members -= old.size()
		delete(r.batches, old.ID)
		if r.retired++; r.retired%retainedRecords == 0 {
			r.batches = rebuilt(r.batches)
		}
	}
	r.mu.Unlock()
}

// retention reports the batch records held and the settled ones retired.
func (r *batchRegistry) retention() (held int, retired uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.batches), r.retired
}

// register adds a job to the registry and files it once it is terminal:
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

// jobFor resolves the job a /v1/jobs/{id} route names, answering 404
// for an id never issued and 410 for one issued and since retired. An
// id counts as issued once drawn, just before its job is registered;
// in that gap it reads as retired, but no client has been given it yet.
func (s *Server) jobFor(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	id := r.PathValue("id")
	if job, ok := s.reg.get(id); ok {
		return job, true
	}
	if issued(id, jobIDPrefix, s.nextID.Load()) {
		httpError(w, http.StatusGone,
			"job %s was retired; a done job's result stays at GET /v1/cache/{cache_key} while the cache holds it", id)
	} else {
		httpError(w, http.StatusNotFound, "no such job")
	}
	return nil, false
}

// batchFor is jobFor for the /v1/batches/{id} routes.
func (s *Server) batchFor(w http.ResponseWriter, r *http.Request) (*Batch, bool) {
	id := r.PathValue("id")
	if b, ok := s.batches.get(id); ok {
		return b, true
	}
	if issued(id, batchIDPrefix, s.nextBatchID.Load()) {
		httpError(w, http.StatusGone,
			"batch %s was retired; its points' results stay at GET /v1/cache/{cache_key} while the cache holds them", id)
	} else {
		httpError(w, http.StatusNotFound, "no such batch")
	}
	return nil, false
}
