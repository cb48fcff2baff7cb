package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeClock returns a deterministic time source advancing 1 ms per call.
func fakeClock() func() time.Time {
	t := time.Unix(1_700_000_000, 0)
	return func() time.Time {
		t = t.Add(time.Millisecond)
		return t
	}
}

func TestSpanLifecycle(t *testing.T) {
	r := NewSpanRecorder()
	r.now = fakeClock()
	root := r.Start("job", nil)
	root.SetAttr("id", "job-1")
	child := r.Start("queued", root)
	child.End()
	child.End() // second End is a no-op
	run := r.Start("running", root)
	run.End()
	root.SetAttr("state", "done")
	root.SetAttr("state", "done") // overwrite, not duplicate
	root.End()

	spans := r.Snapshot()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	if spans[0].Name != "job" || spans[0].Parent != 0 || spans[0].ID != 1 {
		t.Fatalf("root span wrong: %+v", spans[0])
	}
	if spans[1].Parent != spans[0].ID || spans[2].Parent != spans[0].ID {
		t.Fatalf("children not parented to root: %+v", spans[1:])
	}
	if spans[0].Attrs["state"] != "done" || spans[0].Attrs["id"] != "job-1" {
		t.Fatalf("root attrs = %v", spans[0].Attrs)
	}
	for i, s := range spans {
		if s.EndUnixNS == 0 {
			t.Fatalf("span %d not ended: %+v", i, s)
		}
		if s.DurNS != s.EndUnixNS-s.StartUnixNS {
			t.Fatalf("span %d dur %d != end-start %d", i, s.DurNS, s.EndUnixNS-s.StartUnixNS)
		}
		if s.DurNS < 0 {
			t.Fatalf("span %d negative duration", i)
		}
	}
	// queued ended before running started under the fake clock.
	if spans[1].EndUnixNS > spans[2].StartUnixNS {
		t.Fatal("span ordering broken under fake clock")
	}
}

func TestSpanOpenSnapshotAndNil(t *testing.T) {
	r := NewSpanRecorder()
	r.now = fakeClock()
	s := r.Start("job", nil)
	snap := r.Snapshot()
	if snap[0].EndUnixNS != 0 {
		t.Fatalf("open span has end: %+v", snap[0])
	}
	if snap[0].DurNS <= 0 {
		t.Fatalf("open span elapsed = %d, want > 0", snap[0].DurNS)
	}
	s.End()

	// The nil recorder/span surface must be inert, like a nil ptrace
	// recorder.
	var nr *SpanRecorder
	ns := nr.Start("x", nil)
	ns.End()
	ns.SetAttr("k", "v")
	if ns.Dur() != 0 || nr.Snapshot() != nil {
		t.Fatal("nil recorder not inert")
	}
	if got := ns.String(); got != "<nil span>" {
		t.Fatalf("nil span String = %q", got)
	}
}

func TestSpanConcurrent(t *testing.T) {
	r := NewSpanRecorder()
	root := r.Start("job", nil)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				s := r.Start("stream", root)
				s.SetAttr("n", "1")
				s.End()
			}
		}()
	}
	wg.Wait()
	if got := len(r.Snapshot()); got != 1+8*200 {
		t.Fatalf("got %d spans, want %d", got, 1+8*200)
	}
}

func TestSpanJSONLExport(t *testing.T) {
	r := NewSpanRecorder()
	r.now = fakeClock()
	root := r.Start("job", nil)
	r.Start("queued", root).End()
	root.End()
	var buf bytes.Buffer
	if err := WriteSpanJSONL(&buf, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d JSONL lines, want 2", len(lines))
	}
	var ss SpanSnapshot
	if err := json.Unmarshal([]byte(lines[1]), &ss); err != nil {
		t.Fatal(err)
	}
	if ss.Name != "queued" || ss.Parent != 1 {
		t.Fatalf("round-tripped span = %+v", ss)
	}
}

func TestSpanChromeExport(t *testing.T) {
	r := NewSpanRecorder()
	r.now = fakeClock()
	root := r.Start("job", nil)
	root.SetAttr("state", "done")
	r.Start("running", root).End()
	root.End()
	var buf bytes.Buffer
	if err := WriteSpanChrome(&buf, "job-1", r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	// process_name metadata + 2 spans.
	if len(doc.TraceEvents) != 3 {
		t.Fatalf("got %d trace events, want 3", len(doc.TraceEvents))
	}
	if doc.TraceEvents[0]["ph"] != "M" {
		t.Fatalf("first event not metadata: %v", doc.TraceEvents[0])
	}
	// Both spans ride the root's track (tid = root id).
	for _, ev := range doc.TraceEvents[1:] {
		if ev["ph"] != "X" || ev["tid"].(float64) != 1 {
			t.Fatalf("span event wrong: %v", ev)
		}
	}
}

// TestSpanChromeBytes pins WriteSpanChrome's exact output on fixed,
// hand-built snapshots: timestamps relative to the earliest start,
// the 1 µs duration floor, root-ancestor tracks, attrs merged into
// args and the envelope are all part of the format.
func TestSpanChromeBytes(t *testing.T) {
	spans := []SpanSnapshot{
		{ID: 1, Name: "job", StartUnixNS: 5_000_000, EndUnixNS: 9_000_000, DurNS: 4_000_000,
			Attrs: map[string]string{"state": "done"}},
		{ID: 2, Parent: 1, Name: "queued", StartUnixNS: 5_000_500, DurNS: 200},
		{ID: 3, Parent: 2, Name: "running", StartUnixNS: 6_000_000, DurNS: 2_500_000},
		{ID: 4, Name: "other", StartUnixNS: 4_000_000, DurNS: 1_000},
	}
	var buf bytes.Buffer
	if err := WriteSpanChrome(&buf, "job-1", spans); err != nil {
		t.Fatal(err)
	}
	want := `{"displayTimeUnit":"ms","traceEvents":[{"name":"process_name","ph":"M","ts":0,"pid":0,"tid":0,"args":{"name":"job-1"}},{"name":"job","ph":"X","ts":1000,"dur":4000,"pid":0,"tid":1,"args":{"id":1,"parent":0,"state":"done"}},{"name":"queued","ph":"X","ts":1000,"dur":1,"pid":0,"tid":1,"args":{"id":2,"parent":1}},{"name":"running","ph":"X","ts":2000,"dur":2500,"pid":0,"tid":1,"args":{"id":3,"parent":2}},{"name":"other","ph":"X","ts":0,"dur":1,"pid":0,"tid":4,"args":{"id":4,"parent":0}}]}` + "\n"
	if got := buf.String(); got != want {
		t.Fatalf("span chrome export drifted:\n got %s\nwant %s", got, want)
	}
}
