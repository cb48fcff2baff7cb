package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"multiscatter/internal/obs"
)

// spanByName indexes a job's span snapshot for assertions.
func spanByName(spans []obs.SpanSnapshot) map[string]obs.SpanSnapshot {
	out := make(map[string]obs.SpanSnapshot, len(spans))
	for _, s := range spans {
		out[s.Name] = s
	}
	return out
}

// requireTimeline asserts the common shape of a terminal job's span
// timeline: an ended root "job" span carrying the state attr, with the
// "queued" child ended and parented to it.
func requireTimeline(t *testing.T, j *Job, wantState State) map[string]obs.SpanSnapshot {
	t.Helper()
	spans := spanByName(j.Spans())
	root, ok := spans["job"]
	if !ok {
		t.Fatalf("%s: no root span in %v", j.ID, spans)
	}
	if root.EndUnixNS == 0 {
		t.Fatalf("%s: root span never ended", j.ID)
	}
	if root.Attrs["state"] != string(wantState) || root.Attrs["id"] != j.ID {
		t.Fatalf("%s: root attrs = %v, want state %s", j.ID, root.Attrs, wantState)
	}
	q, ok := spans["queued"]
	if !ok || q.Parent != root.ID || q.EndUnixNS == 0 {
		t.Fatalf("%s: queued span wrong: %+v", j.ID, q)
	}
	return spans
}

// TestSpanTimelineTerminalStates drives one job into each terminal
// state — done, failed (packet budget), failed (wall budget), running
// cancel, pending cancel — and checks the span timeline in each case.
func TestSpanTimelineTerminalStates(t *testing.T) {
	m := NewManager(Config{PoolWorkers: 2, Obs: obs.NewRegistry(), HistoryInterval: -1})
	defer m.Close()

	// done
	done, err := m.Submit(smallJob(1))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, done)
	spans := requireTimeline(t, done, StateDone)
	run, ok := spans["running"]
	if !ok || run.Parent != spans["job"].ID || run.EndUnixNS == 0 {
		t.Fatalf("done job running span wrong: %+v", run)
	}
	if _, ok := spans["job"].Attrs["error"]; ok {
		t.Fatalf("done job carries error attr: %v", spans["job"].Attrs)
	}

	// failed: packet budget exceeded
	pkt, err := m.Submit(JobConfig{Scenario: "home", Tags: 2, SpanMS: 5000, MaxPackets: 10})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, pkt)
	spans = requireTimeline(t, pkt, StateFailed)
	if !strings.Contains(spans["job"].Attrs["error"], "budget") {
		t.Fatalf("packet-budget error attr = %v", spans["job"].Attrs)
	}

	// failed: wall-clock budget exceeded
	wall, err := m.Submit(JobConfig{Scenario: "office", Tags: 200, SpanMS: 10000, WallBudgetMS: 1})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, wall)
	spans = requireTimeline(t, wall, StateFailed)
	if !strings.Contains(spans["job"].Attrs["error"], "wall-clock budget") {
		t.Fatalf("wall-budget error attr = %v", spans["job"].Attrs)
	}
}

// TestSpanTimelineCancelPaths pins the two cancellation timelines: a
// running job keeps its "running" span, a never-started job has none.
func TestSpanTimelineCancelPaths(t *testing.T) {
	gate := make(chan struct{})
	m := NewManager(Config{
		Limits:          Limits{MaxRunning: 1, MaxQueue: 2},
		Obs:             obs.NewRegistry(),
		HistoryInterval: -1,
		testGate:        gate,
	})
	running, err := m.Submit(smallJob(1))
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for running.State() != StateRunning {
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(time.Millisecond)
	}
	pending, err := m.Submit(smallJob(2))
	if err != nil {
		t.Fatal(err)
	}
	pending.Cancel()
	waitDone(t, pending)
	spans := requireTimeline(t, pending, StateCancelled)
	if _, ok := spans["running"]; ok {
		t.Fatalf("pending-cancelled job has a running span: %v", spans)
	}

	running.Cancel()
	close(gate)
	waitDone(t, running)
	spans = requireTimeline(t, running, StateCancelled)
	if rs, ok := spans["running"]; !ok || rs.EndUnixNS == 0 {
		t.Fatalf("running-cancelled job running span wrong: %+v", rs)
	}
	m.Close()
}

// TestLatencyHistograms checks the four SLO histograms fill from real
// job flow and show up in the registry snapshot with sane counts.
func TestLatencyHistograms(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewManager(Config{PoolWorkers: 2, Obs: reg, HistoryInterval: -1})
	defer m.Close()
	srv := httptest.NewServer(Handler(m, reg))
	defer srv.Close()

	j, err := m.Submit(smallJob(1))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	resp, err := http.Get(srv.URL + "/jobs/" + j.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	// Read to EOF before snapshotting: streamJob observes stream_ms in a
	// defer, and the chunked body's terminating chunk is written only
	// after the handler (defers included) returns.
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	for name, want := range map[string]int64{
		"serve.latency.queue_wait_ms": 1,
		"serve.latency.run_ms":        1,
		"serve.latency.e2e_ms":        1,
		"serve.latency.stream_ms":     1,
	} {
		h, ok := snap.Histograms[name]
		if !ok || h.Count < want {
			t.Errorf("%s: count %d, want ≥ %d (present %v)", name, h.Count, want, ok)
		}
	}
	// The job's terminal spans also fed a "streaming" child.
	if _, ok := spanByName(j.Spans())["streaming"]; !ok {
		t.Fatal("result stream left no streaming span")
	}
}

// TestDrainMidStream opens an NDJSON result stream on a pinned running
// job, then drains with an expired context (the SIGTERM-past-budget
// path). The streaming client must still receive the terminal
// cancelled line, and the stream span must close.
func TestDrainMidStream(t *testing.T) {
	gate := make(chan struct{})
	reg := obs.NewRegistry()
	m := NewManager(Config{
		Limits:          Limits{MaxRunning: 1, MaxQueue: 2},
		Obs:             reg,
		HistoryInterval: -1,
		testGate:        gate,
	})
	srv := httptest.NewServer(Handler(m, reg))
	defer srv.Close()

	job, err := m.Submit(smallJob(1))
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for job.State() != StateRunning {
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(time.Millisecond)
	}

	resp, err := http.Get(srv.URL + "/jobs/" + job.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() {
		t.Fatal("no first stream line")
	}
	var first jobEvent
	if err := json.Unmarshal(sc.Bytes(), &first); err != nil {
		t.Fatal(err)
	}
	if first.Event != "state" || first.State != StateRunning {
		t.Fatalf("first line = %+v, want running state", first)
	}

	// Drain with an expired budget: the manager cancels in-flight work.
	// The gate must open for the runner to reach the engine and observe
	// the cancellation.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	drained := make(chan struct{})
	go func() {
		m.Drain(ctx)
		close(drained)
	}()
	// Only release the runner once the drain has cancelled in-flight
	// work, so the engine provably observes the cancellation.
	select {
	case <-m.baseCtx.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("drain never cancelled the base context")
	}
	close(gate)
	select {
	case <-drained:
	case <-time.After(30 * time.Second):
		t.Fatal("drain stuck")
	}

	if !sc.Scan() {
		t.Fatal("stream ended without a terminal line")
	}
	var last jobEvent
	if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
		t.Fatal(err)
	}
	if last.Event != "error" || last.State != StateCancelled {
		t.Fatalf("terminal line = %+v, want cancelled error", last)
	}
	requireTimeline(t, job, StateCancelled)
	if _, err := m.Submit(smallJob(2)); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-drain submit: %v, want ErrDraining", err)
	}
	m.Close()
}

// TestMergedJobMetricsAccumulate pins /metrics/jobs merge behavior:
// engine counters from successive jobs add up, and the endpoint serves
// the accumulated snapshot after completion.
func TestMergedJobMetricsAccumulate(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewManager(Config{PoolWorkers: 2, Obs: reg, HistoryInterval: -1})
	defer m.Close()
	srv := httptest.NewServer(Handler(m, reg))
	defer srv.Close()

	var want int64
	for seed := int64(1); seed <= 2; seed++ {
		j, err := m.Submit(smallJob(seed))
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, j)
		if j.State() != StateDone {
			t.Fatalf("%s: %s %q", j.ID, j.State(), j.Err())
		}
		want += j.Metrics().Counters["fleet.packets"]
	}
	if want == 0 {
		t.Fatal("jobs produced no fleet.packets")
	}
	if got := m.MergedJobMetrics().Counters["fleet.packets"]; got != want {
		t.Fatalf("merged fleet.packets = %d, want %d (sum of per-job)", got, want)
	}

	resp, err := http.Get(srv.URL + "/metrics/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["fleet.packets"] != want {
		t.Fatalf("/metrics/jobs fleet.packets = %d, want %d", snap.Counters["fleet.packets"], want)
	}
}

// TestPromEndpoint scrapes /metrics/prom after a job and lints the
// exposition: valid names, monotone buckets, service + merged job +
// runtime series all present.
func TestPromEndpoint(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewManager(Config{PoolWorkers: 2, Obs: reg, HistoryInterval: -1})
	defer m.Close()
	srv := httptest.NewServer(Handler(m, reg))
	defer srv.Close()

	j, err := m.Submit(smallJob(1))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)

	resp, err := http.Get(srv.URL + "/metrics/prom")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"serve_jobs_done_total 1",
		"# TYPE serve_latency_e2e_ms histogram",
		`serve_latency_e2e_ms_bucket{le="+Inf"} 1`,
		"fleet_packets_total",  // merged per-job engine counters
		"runtime_goroutines",   // scrape-time runtime health
		"serve_queue_capacity", // admission envelope gauge
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if err := obs.LintPrometheus(buf.Bytes()); err != nil {
		t.Fatalf("exposition fails lint: %v\n%s", err, text)
	}
}

// TestHealthzStructured decodes /healthz into the Health schema and
// checks the admission-pressure fields against the configured limits.
func TestHealthzStructured(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewManager(Config{
		PoolWorkers:     2,
		Limits:          Limits{MaxRunning: 3, MaxQueue: 7},
		Obs:             reg,
		HistoryInterval: -1,
	})
	defer m.Close()
	srv := httptest.NewServer(Handler(m, reg))
	defer srv.Close()

	j, err := m.Submit(smallJob(1))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)

	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Draining || h.Overloaded {
		t.Fatalf("healthy server reports %+v", h)
	}
	if h.QueueCapacity != 7 || h.MaxRunning != 3 || h.PoolWorkers != 2 {
		t.Fatalf("limits not surfaced: %+v", h)
	}
	if h.Jobs != 1 || h.JobsDone != 1 {
		t.Fatalf("job tallies wrong: %+v", h)
	}
	if h.UptimeMS <= 0 || h.Goroutines < 1 {
		t.Fatalf("runtime fields wrong: %+v", h)
	}
}

// TestOverloadTracking pins the ErrBusy bookkeeping: the first busy
// rejection marks the manager overloaded and bumps the counter, the
// next successful enqueue clears the flag and accumulates BusyMS.
func TestOverloadTracking(t *testing.T) {
	gate := make(chan struct{})
	reg := obs.NewRegistry()
	m := NewManager(Config{
		Limits:          Limits{MaxRunning: 1, MaxQueue: 1},
		Obs:             reg,
		HistoryInterval: -1,
		testGate:        gate,
	})
	first, err := m.Submit(smallJob(1))
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for first.State() != StateRunning {
		if time.Now().After(deadline) {
			t.Fatal("first job never started")
		}
		time.Sleep(time.Millisecond)
	}
	queued, err := m.Submit(smallJob(2)) // fills the queue
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(smallJob(3)); !errors.Is(err, ErrBusy) {
		t.Fatalf("want ErrBusy, got %v", err)
	}
	if h := m.Health(); !h.Overloaded || h.BusyMS <= 0 {
		t.Fatalf("after ErrBusy: %+v, want overloaded with BusyMS > 0", h)
	}
	if n := reg.Counter("serve.jobs_busy_rejected").Load(); n != 1 {
		t.Fatalf("serve.jobs_busy_rejected = %d, want 1", n)
	}

	close(gate)
	waitDone(t, first)
	waitDone(t, queued)
	if _, err := m.Submit(smallJob(4)); err != nil {
		t.Fatal(err)
	}
	if h := m.Health(); h.Overloaded || h.BusyMS <= 0 {
		t.Fatalf("after recovery: %+v, want not overloaded, BusyMS retained", h)
	}
	m.Close()
}

// TestHistoryEndpoint samples manually (ticker disabled) and reads the
// ring back through /metrics/history.
func TestHistoryEndpoint(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewManager(Config{PoolWorkers: 2, Obs: reg, HistoryInterval: -1, HistoryCapacity: 16})
	defer m.Close()
	srv := httptest.NewServer(Handler(m, reg))
	defer srv.Close()

	j, err := m.Submit(smallJob(1))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	m.SampleTelemetry()
	m.SampleTelemetry()

	resp, err := http.Get(srv.URL + "/metrics/history")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hist struct {
		Capacity int `json:"capacity"`
		Samples  int `json:"samples"`
		Series   map[string]struct {
			TMS []int64   `json:"t_ms"`
			V   []float64 `json:"v"`
		} `json:"series"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&hist); err != nil {
		t.Fatal(err)
	}
	if hist.Capacity != 16 || hist.Samples != 2 {
		t.Fatalf("history meta: %+v", hist)
	}
	sd := hist.Series["serve.jobs_done"]
	if len(sd.V) != 2 || sd.V[1] != 1 {
		t.Fatalf("serve.jobs_done series = %+v", sd)
	}
	if _, ok := hist.Series["runtime.goroutines"]; !ok {
		t.Fatal("history missing runtime.goroutines (collect hook)")
	}
	if _, ok := hist.Series["serve.latency.e2e_ms.p95"]; !ok {
		t.Fatal("history missing e2e p95 quantile series")
	}
}

// TestSpansEndpointFormats reads one job's timeline in all three
// formats and rejects an unknown one.
func TestSpansEndpointFormats(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewManager(Config{PoolWorkers: 2, Obs: reg, HistoryInterval: -1})
	defer m.Close()
	srv := httptest.NewServer(Handler(m, reg))
	defer srv.Close()

	j, err := m.Submit(smallJob(1))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp.StatusCode, buf.String()
	}

	code, body := get("/jobs/" + j.ID + "/spans")
	if code != http.StatusOK {
		t.Fatalf("spans json: %d", code)
	}
	var spans []obs.SpanSnapshot
	if err := json.Unmarshal([]byte(body), &spans); err != nil {
		t.Fatal(err)
	}
	if names := spanByName(spans); len(spans) < 3 || names["job"].Name != "job" {
		t.Fatalf("span list wrong: %s", body)
	}

	if code, body := get("/jobs/" + j.ID + "/spans?format=jsonl"); code != http.StatusOK ||
		len(strings.Split(strings.TrimSpace(body), "\n")) < 3 {
		t.Fatalf("spans jsonl: %d %q", code, body)
	}
	if code, body := get("/jobs/" + j.ID + "/spans?format=chrome"); code != http.StatusOK ||
		!strings.Contains(body, `"traceEvents"`) {
		t.Fatalf("spans chrome: %d %q", code, body)
	}
	if code, _ := get("/jobs/" + j.ID + "/spans?format=xml"); code != http.StatusBadRequest {
		t.Fatalf("bad format: %d, want 400", code)
	}
	if code, _ := get("/jobs/job-404/spans"); code != http.StatusNotFound {
		t.Fatalf("missing job spans: %d, want 404", code)
	}
}
