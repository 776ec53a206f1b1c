package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/server"
)

// Remote sweep mode: with -server, a -sweep evaluates on a running
// pearld (POST /v1/batches) instead of in-process. The client is a
// well-behaved multi-tenant citizen: it authenticates with -token and,
// when the daemon throttles it (429 rate/quota) or is saturated (503
// queue full), it backs off for exactly as long as the Retry-After
// hint asks — bounded by remoteMaxRetries attempts and remoteMaxDelay
// per wait — instead of hammering the endpoint.

const (
	remoteMaxRetries = 10
	remoteMaxDelay   = 30 * time.Second
	remotePollEvery  = 500 * time.Millisecond
)

// remoteClient wraps the daemon's HTTP surface for sweep submission.
type remoteClient struct {
	base   string
	token  string
	client *http.Client
	// sleep is swapped out by tests; production uses time.Sleep.
	sleep func(time.Duration)
	logf  func(format string, args ...any)
}

func newRemoteClient(base, token string, logf func(string, ...any)) *remoteClient {
	return &remoteClient{
		base:   strings.TrimRight(base, "/"),
		token:  token,
		client: &http.Client{Timeout: 30 * time.Second},
		sleep:  time.Sleep,
		logf:   logf,
	}
}

func (c *remoteClient) do(method, path string, body []byte) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.token != "" {
		req.Header.Set("Authorization", "Bearer "+c.token)
	}
	return c.client.Do(req)
}

// retryDelay extracts the server's backoff hint: the structured body's
// retry_after_ms when present (finer than whole seconds), else the
// Retry-After header, else one second — clamped to remoteMaxDelay.
func retryDelay(resp *http.Response, body []byte) time.Duration {
	d := time.Second
	if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
		d = time.Duration(secs) * time.Second
	}
	var hint struct {
		RetryAfterMS int64 `json:"retry_after_ms"`
	}
	if json.Unmarshal(body, &hint) == nil && hint.RetryAfterMS > 0 {
		d = time.Duration(hint.RetryAfterMS) * time.Millisecond
	}
	if d > remoteMaxDelay {
		d = remoteMaxDelay
	}
	return d
}

// errorMessage pulls the structured error out of a response body,
// falling back to the raw bytes.
func errorMessage(body []byte) string {
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		return e.Error
	}
	return strings.TrimSpace(string(body))
}

// postJSON posts with Retry-After-honoring bounded backoff. Only
// throttling (429) and overload (503) responses are retried; anything
// else is the caller's verdict to interpret.
func (c *remoteClient) postJSON(path string, payload, out any) error {
	body, err := json.Marshal(payload)
	if err != nil {
		return err
	}
	for attempt := 0; ; attempt++ {
		resp, err := c.do(http.MethodPost, path, body)
		if err != nil {
			return err
		}
		data, rerr := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
		if rerr != nil {
			return rerr
		}
		switch resp.StatusCode {
		case http.StatusOK, http.StatusAccepted, http.StatusCreated:
			return json.Unmarshal(data, out)
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			if attempt+1 >= remoteMaxRetries {
				return fmt.Errorf("%s: still HTTP %d after %d attempts: %s",
					path, resp.StatusCode, remoteMaxRetries, errorMessage(data))
			}
			d := retryDelay(resp, data)
			c.logf("pearlbench: server busy (HTTP %d: %s), retrying in %v",
				resp.StatusCode, errorMessage(data), d)
			c.sleep(d)
		case http.StatusUnauthorized:
			return fmt.Errorf("%s: HTTP 401: %s (is -token set to a configured tenant token?)",
				path, errorMessage(data))
		default:
			return fmt.Errorf("%s: HTTP %d: %s", path, resp.StatusCode, errorMessage(data))
		}
	}
}

// followBatch consumes GET /v1/batches/{id}/events until the feed's
// terminal end frame, printing window samples and point progress as
// they happen. Interrupted streams resume from the last received event
// id with bounded retries; an error means every attempt failed before
// the feed ended, and the caller should fall back to status polling.
// The stream uses its own http.Client with no Timeout — the feed is
// expected to outlive any fixed request deadline.
func (c *remoteClient) followBatch(w io.Writer, id string) error {
	stream := &http.Client{}
	var last uint64
	var lastErr error
	for attempt := 0; attempt < remoteMaxRetries; attempt++ {
		done, err := c.streamBatchOnce(w, stream, id, &last)
		if done {
			return nil
		}
		lastErr = err
		c.logf("pearlbench: event stream interrupted (%v), resuming after id %d", err, last)
		c.sleep(time.Second)
	}
	return fmt.Errorf("event stream for batch %s failed after %d attempts: %w",
		id, remoteMaxRetries, lastErr)
}

// streamBatchOnce runs one streaming attempt; done reports the clean
// terminal frame.
func (c *remoteClient) streamBatchOnce(w io.Writer, stream *http.Client, id string, last *uint64) (done bool, err error) {
	req, err := http.NewRequest(http.MethodGet, c.base+"/v1/batches/"+id+"/events", nil)
	if err != nil {
		return false, err
	}
	if *last > 0 {
		req.Header.Set("Last-Event-ID", strconv.FormatUint(*last, 10))
	}
	if c.token != "" {
		req.Header.Set("Authorization", "Bearer "+c.token)
	}
	resp, err := stream.Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		return false, fmt.Errorf("events: HTTP %d: %s", resp.StatusCode, errorMessage(data))
	}
	err = server.DecodeSSE(resp.Body, func(fr server.SSEFrame) error {
		if n, perr := strconv.ParseUint(fr.ID, 10, 64); perr == nil {
			*last = n
		}
		switch fr.Event {
		case "window":
			var ev server.WindowEvent
			if json.Unmarshal(fr.Data, &ev) != nil {
				return nil
			}
			fmt.Fprintf(w, "  window %-26s %-12s w%-4d %8.2f bits/cycle  p99 %6.1f cyc  %6.3f W\n",
				ev.Label, ev.Pair, ev.Window, ev.ThroughputBitsPerCycle,
				ev.LatencyP99Cycles, ev.PowerW)
		case "progress":
			var ev server.BatchProgressEvent
			if json.Unmarshal(fr.Data, &ev) != nil {
				return nil
			}
			fmt.Fprintf(w, "  point %-27s %-12s %s (%d/%d done)\n",
				ev.Point.ID, ev.Point.Pair, ev.Point.State, ev.Done, ev.Total)
		case "end":
			done = true
			return server.ErrSSEStop
		}
		return nil
	})
	return done, err
}

// getJSON fetches and decodes one resource (no retry loop: polling
// callers already re-poll on their own cadence).
func (c *remoteClient) getJSON(path string, out any) error {
	resp, err := c.do(http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	data, rerr := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	resp.Body.Close()
	if rerr != nil {
		return rerr
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: HTTP %d: %s", path, resp.StatusCode, errorMessage(data))
	}
	return json.Unmarshal(data, out)
}

// runRemoteSweep submits the named sweep as a batch to the -server
// daemon, drives it to a terminal state and prints the same per-point
// lines a local sweep would (plus the server's aggregated series).
// With follow the batch's live SSE event feed is streamed — one line
// per reservation-window sample and per settled point — and the poll
// loop below only runs as the fallback when the stream dies.
func runRemoteSweep(w io.Writer, opts experiments.Options, name, serverURL, token string, follow bool, seeds int) error {
	c := newRemoteClient(serverURL, token, func(format string, args ...any) {
		fmt.Fprintf(w, format+"\n", args...)
	})
	req := server.BatchRequest{
		Sweep:         name,
		Seed:          opts.Seed,
		WarmupCycles:  opts.WarmupCycles,
		MeasureCycles: opts.MeasureCycles,
	}
	if seeds > 1 {
		req.Seeds = seeds
	}
	start := time.Now()
	var st server.BatchStatus
	if err := c.postJSON("/v1/batches", req, &st); err != nil {
		return fmt.Errorf("submitting sweep %s: %w", name, err)
	}
	fmt.Fprintf(w, "batch %s accepted: %d points (%d skipped)\n", st.ID, st.Total, len(st.Skipped))

	if follow {
		if err := c.followBatch(w, st.ID); err != nil {
			c.logf("pearlbench: %v; falling back to polling", err)
		}
	}

	misses := 0
	for st.Pending+st.Running > 0 {
		c.sleep(remotePollEvery)
		var next server.BatchStatus
		if err := c.getJSON("/v1/batches/"+st.ID, &next); err != nil {
			// Transient poll failures (daemon restarting its listener,
			// network blips) get a bounded tolerance; a vanished batch
			// is fatal via the 404 below.
			if misses++; misses >= remoteMaxRetries {
				return fmt.Errorf("polling batch %s: %w", st.ID, err)
			}
			continue
		}
		misses = 0
		st = next
	}

	var res server.BatchResults
	if err := c.getJSON("/v1/batches/"+st.ID+"/results", &res); err != nil {
		return err
	}
	for _, p := range res.Points {
		if p.Result == nil {
			fmt.Fprintf(w, "%-28s %-12s %s: %s\n", p.Label, p.Pair, p.State, p.Error)
			continue
		}
		fmt.Fprintf(w, "%-28s %-12s %10.2f bits/cycle  %8.2f pJ/bit%s\n",
			p.Label, p.Pair, p.Result.ThroughputBitsPerCycle, p.Result.EnergyPerBitPJ,
			map[bool]string{true: "  (cached)", false: ""}[p.Cached])
	}
	for _, sk := range res.Skipped {
		fmt.Fprintf(w, "%-28s %-12s skipped: %s\n", sk.Label, sk.Pair, sk.Reason)
	}
	for _, row := range res.Series {
		if row.ThroughputStdErr > 0 || row.EnergyPerBitStdErr > 0 {
			// A seeds:N batch carries dispersion columns per series.
			fmt.Fprintf(w, "series %-21s %10.2f ±%-6.2f bits/cycle  %8.2f ±%-5.2f pJ/bit  (%d/%d points, 95%% CI)\n",
				row.Label, row.ThroughputBitsPerCycle, row.ThroughputCI95,
				row.EnergyPerBitPJ, row.EnergyPerBitCI95, row.Points, row.Expected)
			continue
		}
		fmt.Fprintf(w, "series %-21s %10.2f bits/cycle  %8.2f pJ/bit  (%d/%d points)\n",
			row.Label, row.ThroughputBitsPerCycle, row.EnergyPerBitPJ, row.Points, row.Expected)
	}
	fmt.Fprintf(w, "sweep %s: %d points on %s in %v (%d done, %d failed, %d cancelled, %d cached)\n",
		name, st.Total, serverURL, time.Since(start).Round(time.Millisecond),
		st.Done, st.Failed, st.Cancelled, st.Cached)
	if st.Failed > 0 || st.Cancelled > 0 {
		return fmt.Errorf("batch %s finished with %d failed, %d cancelled points",
			st.ID, st.Failed, st.Cancelled)
	}
	return nil
}
