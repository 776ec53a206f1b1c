package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
)

// openStream issues a GET against an /events endpoint and returns the
// live response; callers must close the body (that is what releases
// the server-side stream slot).
func openStream(t *testing.T, url, token string, lastID uint64) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	if lastID > 0 {
		req.Header.Set("Last-Event-ID", strconv.FormatUint(lastID, 10))
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// collectFrames reads a feed to its server-side close and returns every
// decoded frame. Only terminated feeds (the server closes the response
// after the end frame) can be collected this way.
func collectFrames(t *testing.T, resp *http.Response) []SSEFrame {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream: HTTP %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream Content-Type %q, want text/event-stream", ct)
	}
	var frames []SSEFrame
	if err := DecodeSSE(resp.Body, func(fr SSEFrame) error {
		frames = append(frames, fr)
		return nil
	}); err != nil {
		t.Fatalf("decoding stream: %v", err)
	}
	return frames
}

// checkFeedShape asserts the protocol invariants every finished feed
// obeys: strictly increasing ids and a terminal end frame.
func checkFeedShape(t *testing.T, frames []SSEFrame) {
	t.Helper()
	if len(frames) == 0 {
		t.Fatal("empty feed")
	}
	var last uint64
	for i, fr := range frames {
		id, err := strconv.ParseUint(fr.ID, 10, 64)
		if err != nil {
			t.Fatalf("frame %d id %q: %v", i, fr.ID, err)
		}
		if id <= last {
			t.Fatalf("frame ids not strictly increasing: %d after %d", id, last)
		}
		last = id
	}
	if fin := frames[len(frames)-1]; fin.Event != eventKindEnd {
		t.Fatalf("feed ended with event %q, want %q", fin.Event, eventKindEnd)
	}
}

// windowFrames filters and decodes the window samples out of a feed.
func windowFrames(t *testing.T, frames []SSEFrame) []WindowEvent {
	t.Helper()
	var out []WindowEvent
	for _, fr := range frames {
		if fr.Event != eventKindWindow {
			continue
		}
		var ev WindowEvent
		if err := json.Unmarshal(fr.Data, &ev); err != nil {
			t.Fatalf("window frame %s: %v", fr.Data, err)
		}
		out = append(out, ev)
	}
	return out
}

// shortWindowJob shrinks the reservation window so a quick run still
// spans many windows — the drop/resume tests need more frames than the
// test ring can hold.
const shortWindowJob = `{"workload":{"cpu":"fmm","gpu":"DCT"},"config":{"ReservationWindow":100},"warmup_cycles":200,"measure_cycles":2000}`

// TestJobEventsStreamLifecycle follows a job feed end to end: live
// window samples while the simulation runs, then the terminal end
// frame carrying the final status, then EOF.
func TestJobEventsStreamLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	code, st := postJob(t, ts, quickJob)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	frames := collectFrames(t, openStream(t, ts.URL+"/v1/jobs/"+st.ID+"/events", "", 0))
	checkFeedShape(t, frames)

	wins := windowFrames(t, frames)
	if len(wins) == 0 {
		t.Fatal("no window frames before the end frame")
	}
	for i, ev := range wins {
		if ev.JobID != st.ID || ev.Pair != "fmm+DCT" || ev.Label == "" {
			t.Fatalf("window %d attribution: %+v", i, ev)
		}
		if ev.Window != i || ev.Cycles <= 0 {
			t.Fatalf("window %d numbered %d over %d cycles", i, ev.Window, ev.Cycles)
		}
		if ev.ThroughputBitsPerCycle < 0 || ev.LatencyP99Cycles < ev.LatencyP50Cycles {
			t.Fatalf("implausible window sample: %+v", ev)
		}
	}
	var end JobEndEvent
	if err := json.Unmarshal(frames[len(frames)-1].Data, &end); err != nil {
		t.Fatal(err)
	}
	if end.Status.State != string(StateDone) {
		t.Fatalf("end frame status %q, want done", end.Status.State)
	}

	// The feed replays identically after completion: same frames, same
	// ids, then EOF — what makes a late subscriber whole.
	replay := collectFrames(t, openStream(t, ts.URL+"/v1/jobs/"+st.ID+"/events", "", 0))
	if fmt.Sprint(replay) != fmt.Sprint(frames) {
		t.Fatalf("post-completion replay differs:\nlive   %v\nreplay %v", frames, replay)
	}

	var m MetricsSnapshot
	getJSON(t, ts.URL+"/metrics", &m)
	if m.EventsEmitted == 0 {
		t.Fatalf("events_emitted = 0 after a streamed job")
	}
}

// TestStreamCachedJobSyntheticEnd: a submission served entirely from
// cache never runs, so it has no window history — but its feed must
// still be a complete SSE document: exactly one synthetic end frame.
func TestStreamCachedJobSyntheticEnd(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	_, first := postJob(t, ts, quickJob)
	pollUntil(t, ts, first.ID, func(s JobStatus) bool { return s.State == string(StateDone) }, 30*time.Second)

	code, second := postJob(t, ts, quickJob)
	if code != http.StatusOK || !second.Cached {
		t.Fatalf("resubmission not a cache hit: HTTP %d %+v", code, second)
	}
	frames := collectFrames(t, openStream(t, ts.URL+"/v1/jobs/"+second.ID+"/events", "", 0))
	checkFeedShape(t, frames)
	if len(frames) != 1 {
		t.Fatalf("cached job feed has %d frames, want exactly the end frame", len(frames))
	}
	var end JobEndEvent
	if err := json.Unmarshal(frames[0].Data, &end); err != nil {
		t.Fatal(err)
	}
	if !end.Status.Cached || end.Status.State != string(StateDone) {
		t.Fatalf("synthetic end frame status %+v, want cached+done", end.Status)
	}
}

// TestStreamResumeAfterDrop forces ring overflow with a tiny buffer
// and verifies both halves of the loss contract: a fresh reader gets
// the surviving suffix with an honest dropped counter, and
// Last-Event-ID resume (header and query form) replays exactly the
// frames after the given id.
func TestStreamResumeAfterDrop(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, StreamRingCapacity: 4})
	code, st := postJob(t, ts, shortWindowJob)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	pollUntil(t, ts, st.ID, func(s JobStatus) bool { return JobState(s.State).Terminal() }, 30*time.Second)

	frames := collectFrames(t, openStream(t, ts.URL+"/v1/jobs/"+st.ID+"/events", "", 0))
	checkFeedShape(t, frames)
	if len(frames) != 4 {
		t.Fatalf("overflowed ring replayed %d frames, want its capacity 4", len(frames))
	}
	firstID, _ := strconv.ParseUint(frames[0].ID, 10, 64)
	if firstID <= 1 {
		t.Fatalf("first surviving frame id %d; the run should have overflowed the 4-slot ring", firstID)
	}
	// Frame seq k was appended onto a full 4-slot ring, evicting one
	// frame per append beyond the capacity: stamped drops = k - 4.
	var meta frameMeta
	if err := json.Unmarshal(frames[0].Data, &meta); err != nil {
		t.Fatal(err)
	}
	if meta.Dropped != firstID-4 {
		t.Fatalf("frame %d stamped dropped=%d, want %d", firstID, meta.Dropped, firstID-4)
	}

	// Resume from the second surviving frame: exactly the later frames.
	resumeID, _ := strconv.ParseUint(frames[1].ID, 10, 64)
	resumed := collectFrames(t, openStream(t, ts.URL+"/v1/jobs/"+st.ID+"/events", "", resumeID))
	if fmt.Sprint(resumed) != fmt.Sprint(frames[2:]) {
		t.Fatalf("header resume from %d:\ngot  %v\nwant %v", resumeID, resumed, frames[2:])
	}
	// Query-parameter form (curl-style clients without header support).
	viaQuery := collectFrames(t, openStream(t,
		ts.URL+"/v1/jobs/"+st.ID+"/events?last_event_id="+frames[1].ID, "", 0))
	if fmt.Sprint(viaQuery) != fmt.Sprint(resumed) {
		t.Fatalf("query resume differs from header resume:\ngot  %v\nwant %v", viaQuery, resumed)
	}

	var m MetricsSnapshot
	getJSON(t, ts.URL+"/metrics", &m)
	if m.EventsDropped == 0 {
		t.Fatal("events_dropped = 0 after forcing ring overflow")
	}
}

// TestStreamHeartbeat parks a reader on an idle feed (a job queued
// behind a long-running one emits nothing) and expects comment
// heartbeats at the configured cadence.
func TestStreamHeartbeat(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, StreamHeartbeat: 20 * time.Millisecond})
	_, running := postJob(t, ts, longJob)
	pollUntil(t, ts, running.ID, func(s JobStatus) bool { return s.State == string(StateRunning) }, 30*time.Second)
	_, queued := postJob(t, ts, mediumJob)

	resp := openStream(t, ts.URL+"/v1/jobs/"+queued.ID+"/events", "", 0)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream: HTTP %d", resp.StatusCode)
	}
	type line struct {
		text string
		err  error
	}
	lines := make(chan line, 64)
	go func() {
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			lines <- line{text: sc.Text()}
		}
		lines <- line{err: sc.Err()}
	}()
	heartbeats := 0
	deadline := time.After(5 * time.Second)
	for heartbeats < 3 {
		select {
		case l := <-lines:
			if l.err != nil {
				t.Fatalf("reading idle stream: %v", l.err)
			}
			if strings.HasPrefix(l.text, ":") {
				heartbeats++
			} else if l.text != "" {
				t.Fatalf("idle feed produced a non-heartbeat line: %q", l.text)
			}
		case <-deadline:
			t.Fatalf("saw %d heartbeats in 5s, want 3 at a 20ms cadence", heartbeats)
		}
	}
}

// streamTenants configures alice with a one-stream cap and bob with
// the server default.
const streamTenants = `{"tenants":[
 {"name":"alice","token":"tok-alice","max_streams":1},
 {"name":"bob","token":"tok-bob"}
]}`

// TestStreamAuthAndCaps covers the gate in front of the feeds: 401
// without a valid token, 404 for unknown ids, 429 (with Retry-After)
// past the per-tenant concurrent-stream cap — scoped per tenant, and
// released when the capped stream closes.
func TestStreamAuthAndCaps(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, TenantsFile: writeTenantsFile(t, streamTenants)})
	resp, data := authedDo(t, http.MethodPost, ts.URL+"/v1/jobs", "tok-alice", longJob)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	var st JobStatus
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	eventsURL := ts.URL + "/v1/jobs/" + st.ID + "/events"

	if r := openStream(t, eventsURL, "", 0); r.StatusCode != http.StatusUnauthorized {
		t.Fatalf("tokenless stream: HTTP %d, want 401", r.StatusCode)
	} else {
		r.Body.Close()
	}
	if r := openStream(t, ts.URL+"/v1/jobs/job-999999/events", "tok-alice", 0); r.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job stream: HTTP %d, want 404", r.StatusCode)
	} else {
		r.Body.Close()
	}
	if r := openStream(t, ts.URL+"/v1/batches/batch-999999/events", "tok-alice", 0); r.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown batch stream: HTTP %d, want 404", r.StatusCode)
	} else {
		r.Body.Close()
	}

	held := openStream(t, eventsURL, "tok-alice", 0)
	if held.StatusCode != http.StatusOK {
		t.Fatalf("first alice stream: HTTP %d", held.StatusCode)
	}
	capped := openStream(t, eventsURL, "tok-alice", 0)
	if capped.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second alice stream: HTTP %d, want 429 (max_streams 1)", capped.StatusCode)
	}
	if capped.Header.Get("Retry-After") == "" {
		t.Fatal("429 without a Retry-After hint")
	}
	capped.Body.Close()

	// The cap is per tenant: bob is not affected by alice's saturation.
	bob := openStream(t, eventsURL, "tok-bob", 0)
	if bob.StatusCode != http.StatusOK {
		t.Fatalf("bob stream while alice capped: HTTP %d", bob.StatusCode)
	}

	var m MetricsSnapshot
	getJSON(t, ts.URL+"/metrics", &m)
	if m.StreamsOpen != 2 || m.Tenants["alice"].StreamsOpen != 1 || m.Tenants["bob"].StreamsOpen != 1 {
		t.Fatalf("streams_open = %d (alice %d, bob %d), want 2 (1, 1)",
			m.StreamsOpen, m.Tenants["alice"].StreamsOpen, m.Tenants["bob"].StreamsOpen)
	}

	// Closing the held stream frees alice's slot.
	held.Body.Close()
	bob.Body.Close()
	waitForOpenStreams(t, ts, 0)
	if r := openStream(t, eventsURL, "tok-alice", 0); r.StatusCode != http.StatusOK {
		t.Fatalf("alice stream after slot release: HTTP %d", r.StatusCode)
	} else {
		r.Body.Close()
	}
}

// waitForOpenStreams polls /metrics until streams_open hits want —
// stream teardown is asynchronous with the client-side Close.
func waitForOpenStreams(t *testing.T, ts *httptest.Server, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		var m MetricsSnapshot
		getJSON(t, ts.URL+"/metrics", &m)
		if m.StreamsOpen == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("streams_open = %d after 5s, want %d", m.StreamsOpen, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestStreamDisconnectReleasesSlot is the regression test for
// abandoned connections: a client that vanishes mid-stream must not
// pin its tenant stream slot or the handler goroutine. The server is
// capped at one concurrent stream, so the follow-up open only succeeds
// if the disconnect actually released everything.
func TestStreamDisconnectReleasesSlot(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, MaxStreamsPerTenant: 1})
	_, st := postJob(t, ts, longJob)

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/jobs/"+st.ID+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream: HTTP %d", resp.StatusCode)
	}
	waitForOpenStreams(t, ts, 1)

	// Abandon the connection without a clean close.
	cancel()
	resp.Body.Close()
	waitForOpenStreams(t, ts, 0)

	follow := openStream(t, ts.URL+"/v1/jobs/"+st.ID+"/events", "", 0)
	if follow.StatusCode != http.StatusOK {
		t.Fatalf("stream after disconnect: HTTP %d, want 200 (slot leaked?)", follow.StatusCode)
	}
	follow.Body.Close()
}

// TestBatchEventsFeed follows a whole batch: member jobs' window
// frames interleave with per-point progress frames (carrying the
// incremental series means), and the end frame's series must equal
// what GET .../results serves afterwards.
func TestBatchEventsFeed(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	body := `{"workloads":[{"cpu":"fmm","gpu":"DCT"},{"cpu":"canneal","gpu":"MatrixMultiply"}],"warmup_cycles":200,"measure_cycles":2000}`
	resp, err := http.Post(ts.URL+"/v1/batches", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var bst BatchStatus
	if err := json.NewDecoder(resp.Body).Decode(&bst); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if bst.Total != 2 {
		t.Fatalf("batch expanded to %d points, want 2", bst.Total)
	}

	frames := collectFrames(t, openStream(t, ts.URL+"/v1/batches/"+bst.ID+"/events", "", 0))
	checkFeedShape(t, frames)

	wins := windowFrames(t, frames)
	jobsSeen := map[string]bool{}
	for _, ev := range wins {
		jobsSeen[ev.JobID] = true
	}
	if len(jobsSeen) != 2 {
		t.Fatalf("batch feed carried windows from %d jobs, want both members", len(jobsSeen))
	}

	var progress []BatchProgressEvent
	for _, fr := range frames {
		if fr.Event != eventKindProgress {
			continue
		}
		var ev BatchProgressEvent
		if err := json.Unmarshal(fr.Data, &ev); err != nil {
			t.Fatal(err)
		}
		progress = append(progress, ev)
	}
	if len(progress) != 2 {
		t.Fatalf("%d progress frames, want one per settled point", len(progress))
	}
	for i, ev := range progress {
		if ev.BatchID != bst.ID || ev.Total != 2 || ev.Done < i+1 {
			t.Fatalf("progress %d: %+v", i, ev)
		}
		if len(ev.Series) == 0 {
			t.Fatalf("progress %d carried no incremental series", i)
		}
	}

	var end BatchEndEvent
	if err := json.Unmarshal(frames[len(frames)-1].Data, &end); err != nil {
		t.Fatal(err)
	}
	if end.Status.State != "done" || end.Status.Done != 2 {
		t.Fatalf("end frame status %+v, want done 2/2", end.Status)
	}
	var res BatchResults
	getJSON(t, ts.URL+"/v1/batches/"+bst.ID+"/results", &res)
	endSeries, _ := json.Marshal(end.Series)
	resSeries, _ := json.Marshal(res.Series)
	if string(endSeries) != string(resSeries) {
		t.Fatalf("end-frame series diverges from the results endpoint:\nfeed    %s\nresults %s", endSeries, resSeries)
	}
}

// TestStreamDeterministicAcrossGOMAXPROCS extends the golden-result
// determinism guarantee to the event feed: the same job replayed on a
// serial and a parallel runtime must stream byte-identical window
// frames (ids, kinds and bodies). End frames carry wall-clock
// timestamps and are excluded.
func TestStreamDeterministicAcrossGOMAXPROCS(t *testing.T) {
	if runtime.NumCPU() < 2 {
		t.Skip("needs >= 2 CPUs to vary GOMAXPROCS meaningfully")
	}
	feed := func(procs, workers int) string {
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
		_, ts := newTestServer(t, Options{Workers: workers})
		code, st := postJob(t, ts, goldenJob)
		if code != http.StatusAccepted {
			t.Fatalf("submit: HTTP %d", code)
		}
		pollUntil(t, ts, st.ID, func(s JobStatus) bool { return JobState(s.State).Terminal() }, 60*time.Second)
		frames := collectFrames(t, openStream(t, ts.URL+"/v1/jobs/"+st.ID+"/events", "", 0))
		checkFeedShape(t, frames)
		var b strings.Builder
		for _, fr := range frames {
			if fr.Event != eventKindWindow {
				continue
			}
			fmt.Fprintf(&b, "id=%s event=%s data=%s\n", fr.ID, fr.Event, fr.Data)
		}
		if b.Len() == 0 {
			t.Fatal("golden job emitted no window frames")
		}
		return b.String()
	}
	serial := feed(1, 1)
	parallel := feed(runtime.NumCPU(), 4)
	if serial != parallel {
		t.Fatalf("event stream depends on GOMAXPROCS:\nserial:\n%s\nparallel:\n%s", serial, parallel)
	}
}

// readLive reads an open feed to its end frame as it is written,
// calling each (if set) on every frame.
func readLive(t *testing.T, resp *http.Response, each func(SSEFrame)) []SSEFrame {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream: HTTP %d", resp.StatusCode)
	}
	var frames []SSEFrame
	if err := DecodeSSE(resp.Body, func(fr SSEFrame) error {
		frames = append(frames, fr)
		if each != nil {
			each(fr)
		}
		return nil
	}); err != nil {
		t.Fatalf("decoding stream: %v", err)
	}
	checkFeedShape(t, frames)
	return frames
}

// matchFinishedFeed reopens a settled feed whose ring overflowed, once
// from the start and once from the middle of what it still holds, and
// requires both byte-equal to what the live reader got under the same
// ids. The ring retains the feed's last capacity frames, and a live
// reader gets those however far it fell behind; a window frame among
// them must carry a drop stamp. It returns them.
func matchFinishedFeed(t *testing.T, url string, live []SSEFrame, capacity int) []SSEFrame {
	t.Helper()
	whole := collectFrames(t, openStream(t, url, "", 0))
	if len(whole) != capacity || len(live) < capacity {
		t.Fatalf("reopened feed holds %d frames and the live one %d; want a ring of %d that overflowed",
			len(whole), len(live), capacity)
	}
	if want := live[len(live)-capacity:]; fmt.Sprint(whole) != fmt.Sprint(want) {
		t.Fatalf("reopened feed differs from the live one:\ngot  %q\nwant %q", whole, want)
	}
	stamped := false
	for _, ev := range windowFrames(t, whole) {
		stamped = stamped || ev.Dropped > 0
	}
	if !stamped {
		t.Fatal("no retained window frame carries a non-zero dropped stamp")
	}
	mid := len(whole) / 2
	resumeID, _ := strconv.ParseUint(whole[mid].ID, 10, 64)
	resumed := collectFrames(t, openStream(t, url, "", resumeID))
	if fmt.Sprint(resumed) != fmt.Sprint(whole[mid+1:]) {
		t.Fatalf("resume after %d:\ngot  %q\nwant %q", resumeID, resumed, whole[mid+1:])
	}
	return whole
}

// holdWorker occupies a one-worker server with a long job and returns
// the call that cancels it, so that a job submitted next waits in the
// queue until a reader has attached to its feed.
func holdWorker(t *testing.T, s *Server, ts *httptest.Server) (release func()) {
	t.Helper()
	_, blocker := postJob(t, ts, longJob)
	pollUntil(t, ts, blocker.ID, func(st JobStatus) bool { return st.State == string(StateRunning) }, 30*time.Second)
	return func() { cancelJob(t, s, "", blocker.ID) }
}

// TestFinishedFeedMatchesLiveFeed: a ring keeps window samples and
// marshals a frame when a reader asks for it, so a feed read after its
// job settled must be the very bytes a live reader got — ids, kinds,
// drop stamps and bodies — for a job that ran to the end, a job
// cancelled mid-run, and a batch feed interleaving two members'
// windows.
func TestFinishedFeedMatchesLiveFeed(t *testing.T) {
	const capacity = 5
	t.Run("done", func(t *testing.T) {
		s, ts := newTestServer(t, Options{Workers: 1, StreamRingCapacity: capacity})
		release := holdWorker(t, s, ts)
		_, st := postJob(t, ts, shortWindowJob) // 20 windows
		url := ts.URL + "/v1/jobs/" + st.ID + "/events"
		resp := openStream(t, url, "", 0)
		release()
		matchFinishedFeed(t, url, readLive(t, resp, nil), capacity)
	})
	t.Run("cancelled", func(t *testing.T) {
		s, ts := newTestServer(t, Options{Workers: 1, StreamRingCapacity: capacity})
		_, st := postJob(t, ts, `{"workload":{"cpu":"canneal","gpu":"MatrixMultiply"},"config":{"ReservationWindow":100},"warmup_cycles":200,"measure_cycles":5000000}`)
		url := ts.URL + "/v1/jobs/" + st.ID + "/events"
		windows := 0
		live := readLive(t, openStream(t, url, "", 0), func(fr SSEFrame) {
			if fr.Event == eventKindWindow {
				if windows++; windows == 17 {
					cancelJob(t, s, "", st.ID)
				}
			}
		})
		var end JobEndEvent
		if err := json.Unmarshal(live[len(live)-1].Data, &end); err != nil || end.Status.State != string(StateCancelled) {
			t.Fatalf("end frame %s, want a cancelled job (err %v)", live[len(live)-1].Data, err)
		}
		matchFinishedFeed(t, url, live, capacity)
	})
	t.Run("batch", func(t *testing.T) {
		// Two members run one after the other with 20 windows each: 43
		// frames, of which a 30-frame ring keeps the last 7 of the first
		// member and everything of the second.
		const batchCapacity = 30
		s, ts := newTestServer(t, Options{Workers: 1, StreamRingCapacity: batchCapacity})
		release := holdWorker(t, s, ts)
		code, bst := postBatch(t, ts, `{"config":{"ReservationWindow":100},"warmup_cycles":200,"measure_cycles":2000,
			"workloads":[{"cpu":"fmm","gpu":"DCT"},{"cpu":"canneal","gpu":"MatrixMultiply"}]}`)
		if code != http.StatusAccepted || bst.Total != 2 {
			t.Fatalf("batch submit: HTTP %d, %d points", code, bst.Total)
		}
		url := ts.URL + "/v1/batches/" + bst.ID + "/events"
		resp := openStream(t, url, "", 0)
		release()
		live := readLive(t, resp, nil)
		members := map[string]bool{}
		for _, ev := range windowFrames(t, matchFinishedFeed(t, url, live, batchCapacity)) {
			members[ev.JobID] = true
		}
		if len(members) != 2 {
			t.Fatalf("retained batch frames carry windows of %d members, want 2", len(members))
		}
	})
}
