// Package report holds the experiment registry: every table and figure
// of the paper's evaluation, in report order, each of which runs once,
// renders its markdown section next to the paper's published values
// and records its machine-readable metrics. cmd/msbench renders the
// full report or one experiment from it, BENCH_<date>.json holds its
// metrics, and the root BenchmarkExperiments times each entry; CI
// pipelines can diff successive reports.
package report

import (
	"fmt"
	"io"

	"multiscatter/internal/obs"
)

// Options configures report generation.
type Options struct {
	// Trials per protocol for identification experiments.
	Trials int
	// Seed for reproducibility.
	Seed int64
}

func (o Options) withDefaults() Options {
	if o.Trials <= 0 {
		o.Trials = 30
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// title heads the full report.
const title = "multiscatter — regenerated evaluation"

// Metrics is the machine-readable counterpart of the markdown report:
// metric group → metric name → value. Keys are stable across runs so CI
// can diff successive BENCH_<date>.json files numerically.
type Metrics map[string]map[string]float64

// Experiment is one entry of the registry.
type Experiment struct {
	// ID names the experiment for msbench -experiment and the
	// BenchmarkExperiments sub-benchmark, and is the metric group its
	// metrics land in (Figures 5, 7 and 8 share "identification").
	ID string
	// Title heads the experiment's markdown section.
	Title string
	// Paper quotes the published values the section compares against;
	// empty for experiments the paper does not report.
	Paper string
	// Run runs the experiment once, writing its section body and
	// recording its metrics through s, and reports a failure with
	// s.fail.
	Run func(s *Section)
}

// Section is what an experiment's Run writes its markdown to and
// records its metrics in. The first error, of a write or a run, sticks:
// later writes are dropped and later experiments do not run.
type Section struct {
	id      string
	w       io.Writer
	o       Options
	metrics Metrics
	err     error
}

func (s *Section) printf(format string, args ...any) {
	if s.err != nil {
		return
	}
	_, s.err = fmt.Fprintf(s.w, format, args...)
}

// fail records the running experiment's failure.
func (s *Section) fail(err error) {
	if s.err == nil {
		s.err = fmt.Errorf("%s: %w", s.id, err)
	}
}

// metric records one value under the running experiment's id.
func (s *Section) metric(name string, v float64) {
	s.record(s.id, name, v)
}

// record records one value under an explicit metric group.
func (s *Section) record(group, name string, v float64) {
	m, ok := s.metrics[group]
	if !ok {
		m = map[string]float64{}
		s.metrics[group] = m
	}
	m[name] = v
}

// run writes e's heading, runs it and closes the section with a blank
// line.
func (s *Section) run(e Experiment) {
	if s.err != nil {
		return
	}
	s.id = e.ID
	s.printf("## %s\n\n", e.Title)
	if e.Paper != "" {
		s.printf("Paper: %s.\n\n", e.Paper)
	}
	e.Run(s)
	s.printf("\n")
}

// Render runs e alone, writes its markdown section to w and returns
// the metrics it recorded. The section is byte-identical to e's section
// in the full report.
func (e Experiment) Render(w io.Writer, o Options) (Metrics, error) {
	s := &Section{w: w, o: o.withDefaults(), metrics: Metrics{}}
	s.run(e)
	return s.metrics, s.err
}

// Lookup returns the registry entry with the given id.
func Lookup(id string) (Experiment, bool) {
	for _, e := range Experiments {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// IDs lists the registry's ids in report order.
func IDs() []string {
	ids := make([]string, len(Experiments))
	for i, e := range Experiments {
		ids[i] = e.ID
	}
	return ids
}

// WriteMetrics renders the full report to w — the title, every
// experiment's section in registry order and the run-metrics trailer —
// and returns the metrics the experiments recorded. Each experiment
// runs once; both outputs come from the same numbers.
func WriteMetrics(w io.Writer, o Options) (Metrics, error) {
	s := &Section{w: w, o: o.withDefaults(), metrics: Metrics{}}
	// Snapshot the default obs registry up front so the trailing metrics
	// section shows this report's activity as a delta, not the process's
	// cumulative totals — two identical seeded runs render identically.
	before := obs.Default().Snapshot()
	s.printf("# %s\n\n", title)
	s.printf("Generated by `internal/report` with %d trials/protocol, seed %d.\n\n", s.o.Trials, s.o.Seed)
	for _, e := range Experiments {
		s.run(e)
	}
	s.runMetrics(before)
	return s.metrics, s.err
}

// runMetrics appends the observability section: the obs counters this
// report run incremented, as a delta against the registry state at
// entry. Only counters are rendered — they are exact and deterministic
// for a fixed (trials, seed), so the section is byte-identical across
// repeated runs, keeping full-report diffs clean. Wall-clock stages and
// histograms stay on the -obs HTTP endpoint.
func (s *Section) runMetrics(before obs.Snapshot) {
	delta := obs.Default().Snapshot().Sub(before).CountersOnly()
	if len(delta.Counters) == 0 {
		return
	}
	s.printf("## Run metrics\n\n")
	s.printf("Simulator work performed while generating this report (see docs/OBSERVABILITY.md):\n\n")
	s.printf("%s", delta.Markdown())
}
