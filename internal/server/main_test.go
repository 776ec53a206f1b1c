package server

import (
	"fmt"
	"net/http"
	"os"
	"runtime"
	"testing"
	"time"
)

// TestMain adds a goleak-style goroutine check over the whole package:
// after every test (and its cleanups — shutdowns, ts.Close) has run,
// the process must settle back to roughly its baseline goroutine
// count. This is what catches a stream handler parked forever on a
// ring after its client vanished — leaks that per-test assertions
// never see because each test's server dies with the process anyway.
func TestMain(m *testing.M) {
	baseline := runtime.NumGoroutine()
	code := m.Run()
	if code == 0 {
		if err := waitForGoroutineBaseline(baseline, 10*time.Second); err != nil {
			fmt.Fprintln(os.Stderr, err)
			code = 1
		}
	}
	os.Exit(code)
}

// waitForGoroutineBaseline polls until the goroutine count returns to
// baseline plus slack. The slack absorbs runtime-owned goroutines
// (finalizer, race runtime, netpoll) and keepalive machinery whose
// teardown we can nudge but not force.
func waitForGoroutineBaseline(baseline int, timeout time.Duration) error {
	const slack = 8
	deadline := time.Now().Add(timeout)
	for {
		http.DefaultClient.CloseIdleConnections()
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= baseline+slack {
			return nil
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			return fmt.Errorf("goroutine leak: %d alive after %v (baseline %d + slack %d)\n%s",
				n, timeout, baseline, slack, buf)
		}
		time.Sleep(50 * time.Millisecond)
	}
}
