package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// TestSmoke runs every workload at smoke-test size, untraced and traced,
// and checks that it passes its own checks and emits every metric of
// the catalogue with its unit.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			o := options{
				workload: w.name,
				seed:     7,
				duration: 600 * time.Millisecond,
				trace:    traced,
				traceOut: t.TempDir(),
				small:    true,
				clients:  2,
			}
			res, err := run(o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d",
					w.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			defs := endToEndMetrics
			if traced {
				defs = perLayerMetrics
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w.name, traced, d.Name)
				case m.Unit != d.Unit:
					t.Errorf("%s trace=%v: metric %s unit %q, want %q", w.name, traced, d.Name, m.Unit, d.Unit)
				case !traced && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, d.Name, m.Value)
				}
			}
			if traced {
				if cov := res.Metrics["trace.coverage"].Value; cov < minCoverage {
					t.Errorf("%s: trace coverage %.3f < %.2f", w.name, cov, minCoverage)
				}
				if w.name == "link" && res.Metrics["link.identify_accuracy"].Value != 1 {
					t.Errorf("link: identify accuracy %v", res.Metrics["link.identify_accuracy"].Value)
				}
			}
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json at the repository root in step
// with the catalogue and the workload list.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, want %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q, want %q", i, w.Name, workloads[i].name)
		}
	}
	if len(b.EndToEnd) != len(endToEndMetrics) || len(b.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("BENCHMARK.json has %d+%d metrics, catalogue %d+%d",
			len(b.EndToEnd), len(b.PerLayer), len(endToEndMetrics), len(perLayerMetrics))
	}
	for i, m := range b.EndToEnd {
		d := endToEndMetrics[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end_to_end[%d] = %+v, catalogue %+v", i, m, d)
		}
	}
	for i, m := range b.PerLayer {
		d := perLayerMetrics[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer[%d] = %+v, catalogue %+v", i, m, d)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	// root [0,100] with children [10,40] and [30,60] (overlapping) and a
	// grandchild [15,20] under the first child.
	spans := []span{
		{id: 1, name: "root", start: 0, end: 100},
		{id: 2, parent: 1, name: "a", start: 10, end: 40},
		{id: 3, parent: 1, name: "b", start: 30, end: 60},
		{id: 4, parent: 2, name: "c", start: 15, end: 20},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{"root": 50, "a": 25, "b": 30, "c": 5}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("self(%s) = %d, want %d", k, got[k], v)
		}
	}
}

func TestWindowedLatency(t *testing.T) {
	var ops []op
	// Four 1 s windows of 10 ops each; window 2 is three times slower.
	for w := 0; w < 4; w++ {
		lat := 10 * time.Millisecond
		if w == 2 {
			lat = 30 * time.Millisecond
		}
		for i := 0; i < 10; i++ {
			ops = append(ops, op{end: time.Duration(w)*time.Second + time.Duration(i)*time.Millisecond, lat: lat, work: 1})
		}
	}
	if p50, p90 := windowedLatency(ops, 4*time.Second, time.Second); p50 != 10 || p90 != 10 {
		t.Errorf("windowedLatency = %v, %v ms, want 10, 10", p50, p90)
	}
	if p50, p90 := windowedLatency(ops, 4*time.Second, 0); p50 != 10 || p90 != 30 {
		t.Errorf("per-op windowedLatency = %v, %v ms, want 10, 30", p50, p90)
	}
}
