//go:build !race

package server

import (
	"net/http"
	"testing"
	"time"
)

// TestRetentionSoak pushes 100,000 cached submissions through
// Server.ServeHTTP, with no sockets, and checks that the daemon's memory
// is a function of retainedRecords rather than of the request count: the
// registry never holds more records than the bound, and live heap after
// the last submission is within 10% of live heap after the 20,000th. It
// is built without the race detector, whose shadow memory would blur
// the heap readings and which would run for minutes.
func TestRetentionSoak(t *testing.T) {
	s := newBareServer(t, Options{Workers: 1})
	spec := resolveSpec(t, s, quickJob)
	s.cache.Put(spec.Key(), testResult(1))

	const early, total = 20_000, 100_000
	var atEarly int64
	start := time.Now()
	for i := 1; i <= total; i++ {
		if code, body := serve(s, http.MethodPost, "/v1/jobs", quickJob); code != http.StatusOK {
			t.Fatalf("submission %d: HTTP %d, want a cache hit: %s", i, code, body)
		}
		if i%1000 == 0 {
			if held, _ := s.reg.retention(); held > retainedRecords {
				t.Fatalf("after %d submissions the registry holds %d records, bound %d", i, held, retainedRecords)
			}
		}
		if i == early {
			atEarly = liveHeap()
		}
	}
	atEnd := liveHeap()
	t.Logf("%d submissions in %v; live heap %d B after %d, %d B after %d",
		total, time.Since(start).Round(time.Millisecond), atEarly, early, atEnd, total)
	if d := float64(atEnd - atEarly); d > 0.1*float64(atEarly) || d < -0.1*float64(atEarly) {
		t.Errorf("live heap moved from %d B after %d submissions to %d B after %d, more than 10%%",
			atEarly, early, atEnd, total)
	}
	if m := metricsOf(t, s); m.JobsRetired != total-retainedRecords || m.JobsRetained != retainedRecords {
		t.Errorf("jobs_retired %d, jobs_retained %d; want %d, %d",
			m.JobsRetired, m.JobsRetained, total-retainedRecords, retainedRecords)
	}
}
