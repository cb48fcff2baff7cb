package ptrace

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// fill records a deterministic spread of lifecycles across shards.
func fill(r *Recorder, shards, tagsPerShard, packets int) {
	r.Configure(shards)
	for s := 0; s < shards; s++ {
		sr := r.Shard(s)
		for t := 0; t < tagsPerShard; t++ {
			tag := int32(s + t*shards)
			for p := 0; p < packets; p++ {
				if !sr.Wants(int32(p)) {
					continue
				}
				base := Event{TUS: int64(p) * 1000, Tag: tag, Packet: int32(p), Proto: "802.11n"}
				ex := base
				ex.Stage, ex.DurUS = StageExcite, 185
				sr.Record(ex)
				id := base
				id.Stage, id.Detail = StageIdentify, "ok"
				sr.Record(id)
				oc := base
				oc.Stage, oc.Detail = StageOutcome, "delivered"
				sr.Record(oc)
			}
		}
	}
}

func TestDrainCanonicalOrder(t *testing.T) {
	r := New(Config{})
	fill(r, 4, 3, 7)
	evs := r.Drain()
	if len(evs) != 4*3*7*3 {
		t.Fatalf("drained %d events, want %d", len(evs), 4*3*7*3)
	}
	for i := range evs {
		if evs[i].Seq != uint64(i) {
			t.Fatalf("event %d has seq %d", i, evs[i].Seq)
		}
		if i == 0 {
			continue
		}
		a, b := &evs[i-1], &evs[i]
		if a.Packet > b.Packet ||
			(a.Packet == b.Packet && a.Tag > b.Tag) ||
			(a.Packet == b.Packet && a.Tag == b.Tag && a.Stage >= b.Stage) {
			t.Fatalf("events %d/%d out of canonical order: %+v then %+v", i-1, i, a, b)
		}
	}
	// Draining again yields the same stream (buffers are kept).
	if !reflect.DeepEqual(evs, r.Drain()) {
		t.Fatal("second drain differs")
	}
}

func TestShardCountInvariance(t *testing.T) {
	// The same lifecycles recorded under different shard partitions must
	// drain to the same canonical stream (shard IDs aside): this is the
	// mechanism behind the workers-invariance golden test in fleet.
	streams := make([][]Event, 0, 2)
	for _, shards := range []int{1, 6} {
		r := New(Config{})
		r.Configure(shards)
		for tag := int32(0); tag < 12; tag++ {
			sr := r.Shard(int(tag) % shards)
			for p := int32(0); p < 5; p++ {
				sr.Record(Event{TUS: int64(p), Tag: tag, Packet: p, Proto: "BLE", Stage: StageExcite})
			}
		}
		evs := r.Drain()
		for i := range evs {
			evs[i].Shard = 0
		}
		streams = append(streams, evs)
	}
	if !reflect.DeepEqual(streams[0], streams[1]) {
		t.Fatal("canonical stream depends on the shard partition")
	}
}

func TestSampling(t *testing.T) {
	r := New(Config{Sample: 10})
	r.Configure(1)
	sr := r.Shard(0)
	var kept int
	for p := int32(0); p < 100; p++ {
		if sr.Wants(p) {
			kept++
			sr.Record(Event{Packet: p, Stage: StageExcite})
		}
	}
	if kept != 10 {
		t.Fatalf("sampled %d of 100 packets, want 10", kept)
	}
	if got := len(r.Drain()); got != 10 {
		t.Fatalf("drained %d events, want 10", got)
	}
}

func TestRingOverwriteKeepsNewest(t *testing.T) {
	r := New(Config{Capacity: 8})
	r.Configure(1)
	sr := r.Shard(0)
	for p := int32(0); p < 20; p++ {
		sr.Record(Event{Packet: p, Stage: StageExcite})
	}
	evs := r.Drain()
	if len(evs) != 8 {
		t.Fatalf("ring holds %d events, want 8", len(evs))
	}
	for i, ev := range evs {
		if want := int32(12 + i); ev.Packet != want {
			t.Fatalf("ring event %d is packet %d, want %d (newest must survive)", i, ev.Packet, want)
		}
	}
}

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.Configure(4)
	if sr := r.Shard(0); sr != nil {
		t.Fatal("nil recorder must hand out nil shard recorders")
	}
	if evs := r.Drain(); evs != nil {
		t.Fatal("nil recorder must drain nil")
	}
}

func TestJSONLRoundTripAndStability(t *testing.T) {
	r := New(Config{})
	fill(r, 3, 2, 5)
	evs := r.Drain()
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, evs); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(evs, back) {
		t.Fatal("JSONL did not round-trip")
	}
	// Identical fills encode to identical bytes.
	r2 := New(Config{})
	fill(r2, 3, 2, 5)
	var buf2 bytes.Buffer
	if err := WriteJSONL(&buf2, r2.Drain()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("identical recordings produced different JSONL bytes")
	}
	// Field order and stage naming are part of the format: pin one line.
	first := buf.String()[:strings.Index(buf.String(), "\n")]
	want := `{"seq":0,"t_us":0,"dur_us":185,"shard":0,"tag":0,"pkt":0,"proto":"802.11n","stage":"excite"}`
	if first != want {
		t.Fatalf("JSONL first line drifted:\n got %s\nwant %s", first, want)
	}
}

func TestChromeTraceIsValidJSON(t *testing.T) {
	r := New(Config{})
	fill(r, 2, 2, 3)
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, "test", r.Drain()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	var spans, meta int
	for _, ev := range doc.TraceEvents {
		switch ev["ph"] {
		case "X":
			spans++
		case "M":
			meta++
		}
	}
	if spans != 2*2*3*3 {
		t.Fatalf("chrome trace has %d spans, want %d", spans, 2*2*3*3)
	}
	if meta == 0 {
		t.Fatal("chrome trace missing process/thread metadata")
	}
}

func TestDiff(t *testing.T) {
	r := New(Config{})
	fill(r, 2, 2, 4)
	a := r.Drain()
	b := append([]Event(nil), a...)
	if d := Diff(a, b); d != nil {
		t.Fatalf("identical streams diverged: %+v", d)
	}
	// A flipped verdict is located exactly.
	i := len(b) / 2
	for b[i].Stage != StageOutcome {
		i++
	}
	b[i].Detail = "cross-collided"
	d := Diff(a, b)
	if d == nil {
		t.Fatal("diff missed a flipped outcome")
	}
	if d.Index != i || d.Tag != a[i].Tag || d.Packet != a[i].Packet || d.Stage != StageOutcome {
		t.Fatalf("diff located %+v, want index %d tag %d pkt %d", d, i, a[i].Tag, a[i].Packet)
	}
	msg := d.Format("serial", a, "parallel", b)
	for _, want := range []string{"packet #", "tag ", "stage outcome", "delivered", "cross-collided", "lifecycle (serial)"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("explainer message missing %q:\n%s", want, msg)
		}
	}
	// A truncated stream diverges at the cut.
	if d := Diff(a, a[:len(a)-2]); d == nil || d.Index != len(a)-2 || d.B != nil {
		t.Fatalf("truncation not located: %+v", d)
	}
}

func TestSetLast(t *testing.T) {
	evs := []Event{{Tag: 1, Packet: 2, Stage: StageOutcome, Detail: "delivered"}}
	SetLast(evs)
	if got := Last(); !reflect.DeepEqual(got, evs) {
		t.Fatalf("Last = %+v, want %+v", got, evs)
	}
	SetLast(nil)
	if Last() != nil {
		t.Fatal("Last not cleared")
	}
}

// BenchmarkRecord measures the per-event cost when tracing is on.
func BenchmarkRecord(b *testing.B) {
	r := New(Config{Capacity: 1 << 12})
	r.Configure(1)
	sr := r.Shard(0)
	ev := Event{TUS: 1000, Tag: 3, Packet: 7, Proto: "802.11n", Stage: StageIdentify, Detail: "ok"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if sr != nil && sr.Wants(int32(i)) {
			sr.Record(ev)
		}
	}
}

// BenchmarkRecordDisabled measures the disabled fast path: the single
// nil pointer check the engines pay per packet when no recorder is
// configured.
func BenchmarkRecordDisabled(b *testing.B) {
	var r *Recorder
	sr := r.Shard(0)
	ev := Event{TUS: 1000, Tag: 3, Packet: 7, Proto: "802.11n", Stage: StageIdentify, Detail: "ok"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if sr != nil && sr.Wants(int32(i)) {
			sr.Record(ev)
		}
	}
}

// TestChromeTraceBytes pins the exporter's exact output on a fixed,
// hand-built stream: record field order, omitted empty fields, the
// metadata records' placement, the per-stage slicing of the packet
// window and the envelope are all part of the format.
func TestChromeTraceBytes(t *testing.T) {
	events := []Event{
		{Seq: 0, TUS: 100, DurUS: 70, Shard: 0, Tag: 3, Packet: 0, Proto: "BLE", Stage: StageExcite},
		{Seq: 1, TUS: 100, Shard: 0, Tag: 3, Packet: 0, Proto: "BLE", Stage: StageOutcome, Detail: "delivered"},
		{Seq: 2, TUS: 250, DurUS: 2, Shard: 1, Tag: 4, Packet: 1, Proto: "ZigBee", Stage: StageExcite},
		{Seq: 3, TUS: 250, Shard: 1, Tag: 4, Packet: 1, Proto: "ZigBee", Stage: StageIdentify, Detail: "misidentified"},
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, "run", events); err != nil {
		t.Fatal(err)
	}
	want := `{"displayTimeUnit":"ms","traceEvents":[{"name":"process_name","ph":"M","ts":0,"pid":0,"tid":0,"args":{"name":"run shard 0"}},{"name":"thread_name","ph":"M","ts":0,"pid":0,"tid":3,"args":{"name":"tag 3"}},{"name":"excite","cat":"BLE","ph":"X","ts":100,"dur":10,"pid":0,"tid":3,"args":{"detail":"","pkt":0,"proto":"BLE","seq":0}},{"name":"outcome","cat":"BLE","ph":"X","ts":160,"dur":10,"pid":0,"tid":3,"args":{"detail":"delivered","pkt":0,"proto":"BLE","seq":1}},{"name":"process_name","ph":"M","ts":0,"pid":1,"tid":0,"args":{"name":"run shard 1"}},{"name":"thread_name","ph":"M","ts":0,"pid":1,"tid":4,"args":{"name":"tag 4"}},{"name":"excite","cat":"ZigBee","ph":"X","ts":250,"dur":1,"pid":1,"tid":4,"args":{"detail":"","pkt":1,"proto":"ZigBee","seq":2}},{"name":"identify","cat":"ZigBee","ph":"X","ts":252,"dur":1,"pid":1,"tid":4,"args":{"detail":"misidentified","pkt":1,"proto":"ZigBee","seq":3}}]}` + "\n"
	if got := buf.String(); got != want {
		t.Fatalf("chrome trace drifted:\n got %s\nwant %s", got, want)
	}
}
