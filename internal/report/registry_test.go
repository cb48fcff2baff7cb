package report

import (
	"io"
	"reflect"
	"sort"
	"strings"
	"testing"

	"multiscatter/internal/obs/benchdiff"
)

// Write renders the full report to w, for the tests that need only the
// markdown.
func Write(w io.Writer, o Options) error {
	_, err := WriteMetrics(w, o)
	return err
}

func TestRegistryIDs(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range Experiments {
		if e.ID == "" || e.ID == "all" || e.Title == "" || e.Run == nil {
			t.Errorf("incomplete registry entry %+v", e)
		}
		if seen[e.ID] {
			t.Errorf("duplicate experiment id %q", e.ID)
		}
		seen[e.ID] = true
		if got, ok := Lookup(e.ID); !ok || got.Title != e.Title {
			t.Errorf("Lookup(%q) = %+v, %v", e.ID, got, ok)
		}
	}
	// Every id msbench -experiment has ever accepted stays accepted.
	for _, id := range []string{
		"table1", "table2", "table3", "table4", "table5", "table6",
		"fig4", "fig5", "fig7", "fig8", "fig9", "fig12", "fig13", "fig14",
		"fig15", "fig16", "fig17", "fig18", "downlink",
	} {
		if !seen[id] {
			t.Errorf("registry lacks experiment %q", id)
		}
	}
	if !reflect.DeepEqual(IDs(), ids(Experiments)) {
		t.Errorf("IDs() = %v", IDs())
	}
	if _, ok := Lookup("fig99"); ok {
		t.Error("Lookup accepted an unknown id")
	}
}

func ids(es []Experiment) []string {
	out := make([]string, len(es))
	for i, e := range es {
		out[i] = e.ID
	}
	return out
}

// TestRegistryRendersOneReport checks the registry's three contracts
// against one full run: each experiment rendered alone writes exactly
// its section of the full report and records exactly its share of the
// full report's metrics (so no experiment's output depends on what ran
// before it), and the full run's metric keys are the keys of the newest
// committed BENCH_<date>.json baseline, so a dropped or renamed key
// fails here and not only in bench-compare.
func TestRegistryRendersOneReport(t *testing.T) {
	o := Options{Trials: 4, Seed: 3}
	var full strings.Builder
	fullMetrics, err := WriteMetrics(&full, o)
	if err != nil {
		t.Fatal(err)
	}

	var sections strings.Builder
	alone := Metrics{}
	for _, e := range Experiments {
		var sb strings.Builder
		m, err := e.Render(&sb, o)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		if !strings.HasPrefix(sb.String(), "## "+e.Title+"\n\n") {
			t.Errorf("%s: section does not open with its title:\n%s", e.ID, sb.String())
		}
		sections.WriteString(sb.String())
		for group, kv := range m {
			if alone[group] == nil {
				alone[group] = map[string]float64{}
			}
			for k, v := range kv {
				if _, dup := alone[group][k]; dup {
					t.Errorf("%s: metric %s/%s also recorded by another experiment", e.ID, group, k)
				}
				alone[group][k] = v
			}
		}
	}
	body := strings.TrimPrefix(full.String(),
		"# "+title+"\n\nGenerated by `internal/report` with 4 trials/protocol, seed 3.\n\n")
	if !strings.HasPrefix(body, sections.String()) {
		t.Fatal("the full report is not the experiments' sections rendered alone, in registry order")
	}
	if rest := strings.TrimPrefix(body, sections.String()); !strings.HasPrefix(rest, "## Run metrics\n") {
		t.Fatalf("full report continues past the last section with %.80q, want the run-metrics trailer", rest)
	}
	if !reflect.DeepEqual(alone, fullMetrics) {
		t.Fatalf("metrics of experiments run alone differ from the full run:\nalone %v\nfull  %v", alone, fullMetrics)
	}

	path, err := benchdiff.LatestBaseline("../..")
	if err != nil {
		t.Fatal(err)
	}
	base, err := benchdiff.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := metricKeys(fullMetrics), metricKeys(base.Metrics); !reflect.DeepEqual(got, want) {
		t.Fatalf("metric keys differ from %s:\n got %v\nwant %v", path, got, want)
	}
}

func metricKeys(m map[string]map[string]float64) []string {
	var keys []string
	for group, kv := range m {
		for k := range kv {
			keys = append(keys, group+"/"+k)
		}
	}
	sort.Strings(keys)
	return keys
}
