// Command perfbench is the repository benchmark. It drives the
// multiscatter stack from outside, through its public functions, on
// three workloads:
//
//	link         closed loop of packets over the waveform chain
//	             (overlay codec → tag identification → tag modulation →
//	             AWGN → single-receiver decode), one goroutine per core
//	fleet-dense  back-to-back fleet.Run calls on a 1000-tag office
//	             deployment in the cross-collision collapse regime
//	serve-http   closed loop of nproc clients POSTing /jobs?wait=1 to the
//	             fleet service over keep-alive loopback HTTP
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload link --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh --workload all --seconds 10
//
// The smoke test runs every workload at minimal size:
//
//	cd perfbench && go test ./...
//
// Every input is generated from --seed. The benchmark sets up its
// workload several times and reports the median set-up time, measures
// for --seconds, checks the program's outputs, and prints one JSON
// object as the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end metrics of catalogue.go;
// with --trace 1 they are the per-layer metrics, measured in a separate
// traced pass whose spans are kept in memory and written to
// --trace-out as gzipped JSONL when the run ends. A traced run spends the first half of
// --seconds untraced and the second half traced, and reports the
// difference in throughput per CPU second as trace.overhead_pct.
//
// Throughput is counted per second of CPU time the process got, and
// latency is the median over 1 s windows (per fleet.Run call for
// fleet-dense) of each window's median: on a shared VM, wall-clock
// throughput and tail latency moved by 30–50% between runs with the
// hypervisor's steal time, which CPU time and window medians do not see.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// setupRepeats is how often a run builds its workload; setup_s is the
// median, so a one-off stall does not move it.
const setupRepeats = 7

// options are the command-line settings shared by every workload.
type options struct {
	workload string
	seed     int64
	duration time.Duration
	trace    bool
	traceOut string
	// small shrinks every workload to a smoke-test size.
	small bool
	// clients is the number of load goroutines or connections.
	clients int
}

// workload is one benchmark scenario.
type workload struct {
	name  string
	setup func(o options) (bench, error)
}

// bench is a set-up workload, ready for its timed loop.
type bench interface {
	// measure runs the timed loop for d. A nil rec runs untraced.
	measure(d time.Duration, rec *recorder) (*sample, error)
	// verify checks the program's outputs outside the timed loop.
	verify() error
	close()
}

// sample is what one timed loop observed.
type sample struct {
	attempted, failed int
	elapsed           time.Duration
	// work is the throughput numerator: packets (link), tag·packets
	// (fleet-dense) or jobs (serve-http).
	work float64
	// ops are every operation's completion, latency and work.
	ops []op
	// window is the length of the windows the end-to-end figures are
	// taken over; 0 takes them per operation.
	window time.Duration
	// layer holds the workload's own per-layer figures (traced runs).
	layer map[string]float64
	// wall is the time the load goroutines were running, summed over
	// them: the base of the trace coverage check.
	wall time.Duration
	// violations describes failed degeneracy or correctness checks;
	// runFailed marks a check on the whole loop, not one operation.
	violations []string
	runFailed  bool
	// asideCPU is CPU time measure spent outside the timed loop, reading
	// back the server's spans of a traced pass.
	asideCPU time.Duration
}

// op is one completed operation.
type op struct {
	end, lat time.Duration // end is measured from the loop's start
	work     float64
}

// record counts one operation.
func (s *sample) record(end, lat time.Duration, work float64) {
	s.attempted++
	s.work += work
	s.ops = append(s.ops, op{end: end, lat: lat, work: work})
}

// merge folds a load goroutine's sample into s.
func (s *sample) merge(o *sample) {
	s.attempted += o.attempted
	s.failed += o.failed
	s.work += o.work
	s.wall += o.wall
	s.ops = append(s.ops, o.ops...)
	s.violations = append(s.violations, o.violations...)
	s.runFailed = s.runFailed || o.runFailed
}

// fail counts one failed operation; call it once per operation.
func (s *sample) fail(format string, args ...any) {
	s.failed++
	s.note(format, args...)
}

// failRun records a failed check on the whole loop.
func (s *sample) failRun(format string, args ...any) {
	s.runFailed = true
	s.note(format, args...)
}

func (s *sample) note(format string, args ...any) {
	if len(s.violations) < 8 {
		s.violations = append(s.violations, fmt.Sprintf(format, args...))
	}
}

var workloads = []workload{
	{name: "link", setup: setupLink},
	{name: "fleet-dense", setup: setupFleetDense},
	{name: "serve-http", setup: setupServeHTTP},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var o options
	var traceFlag int
	var secs int
	flag.StringVar(&o.workload, "workload", "", "workload to run: link, fleet-dense, serve-http, or all (one result line each)")
	flag.Int64Var(&o.seed, "seed", 1, "seed every input is generated from")
	flag.IntVar(&secs, "seconds", 30, "length of the timed loop in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced per-layer pass instead of the end-to-end one")
	flag.StringVar(&o.traceOut, "trace-out", ".bench_build/trace", "directory the traced pass writes its spans to")
	flag.Parse()
	o.duration = time.Duration(secs) * time.Second
	o.trace = traceFlag == 1
	o.clients = runtime.GOMAXPROCS(0)
	names := []string{o.workload}
	if o.workload == "all" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	for _, name := range names {
		o.workload = name
		res, err := run(o)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		if len(names) > 1 {
			fmt.Printf("%s\t", name)
		}
		fmt.Println(string(line))
	}
}

// run sets the workload up, measures it and checks it.
func run(o options) (*result, error) {
	w, ok := findWorkload(o.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.duration <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	var b bench
	setups := make([]float64, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		if b != nil {
			b.close()
		}
		t0 := time.Now()
		nb, err := w.setup(o)
		if err != nil {
			return nil, fmt.Errorf("%s setup: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		b = nb
	}
	defer b.close()
	sort.Float64s(setups)

	var out map[string]float64
	var s *sample
	var err error
	if o.trace {
		s, out, err = tracedPass(o, b)
	} else {
		var rs runStats
		s, rs, err = measured(b, o.duration, nil)
		if err == nil {
			out = endToEnd(s, rs, setups[len(setups)/2])
		}
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	correct := true
	if err := b.verify(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: output check failed: %v\n", w.name, err)
		correct = false
	}
	for _, v := range s.violations {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %s\n", w.name, v)
	}
	if s.attempted < 1 {
		return nil, fmt.Errorf("%s: no operation completed in %v", w.name, o.duration)
	}
	res := &result{
		Correct:   correct && s.failed == 0 && !s.runFailed,
		Attempted: s.attempted,
		Failed:    s.failed,
		Metrics:   map[string]metric{},
	}
	defs := endToEndMetrics
	if o.trace {
		defs = perLayerMetrics
	}
	for _, d := range defs {
		v, ok := out[d.Name]
		if !ok {
			// A layer this workload bypasses did no work.
			v = 0
		}
		res.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	return res, nil
}

// measured runs one timed loop with the runtime statistics around it.
func measured(b bench, d time.Duration, rec *recorder) (*sample, runStats, error) {
	runtime.GC()
	rt := startRuntimeStats()
	s, err := b.measure(d, rec)
	rs := rt.stop()
	return s, rs, err
}

// endToEnd derives the end-to-end metrics of one untraced loop.
func endToEnd(s *sample, rs runStats, setupS float64) map[string]float64 {
	p50, _ := windowedLatency(s.ops, s.elapsed, s.window)
	return map[string]float64{
		"throughput_per_cpu_s": s.work / rs.cpu.Seconds(),
		"latency_p50_ms":       p50,
		"heap_p95_mb":          rs.heapP95MB,
		"setup_s":              setupS,
	}
}

// tracedPass measures half the run untraced and half traced, and derives
// the per-layer metrics from the traced half.
func tracedPass(o options, b bench) (*sample, map[string]float64, error) {
	half := o.duration / 2
	if half <= 0 {
		half = o.duration
	}
	plain, plainRS, err := measured(b, half, nil)
	if err != nil {
		return nil, nil, err
	}
	rec := newRecorder()
	s, rs, err := measured(b, half, rec)
	if err != nil {
		return nil, nil, err
	}
	out := map[string]float64{}
	for k, v := range s.layer {
		out[k] = v
	}
	// Allocation and GC come from the untraced half, which recording
	// spans cannot inflate.
	perOp := plainRS.allocBytes / float64(plain.attempted)
	switch o.workload {
	case "link":
		out["link.alloc_kb_per_packet"] = perOp / 1024
		out["link.gc_cpu_share"] = plainRS.gcCPUShare
	case "fleet-dense":
		out["fleet.alloc_mb_per_run"] = perOp / (1 << 20)
		out["fleet.gc_cpu_share"] = plainRS.gcCPUShare
	case "serve-http":
		out["serve.alloc_kb_per_job"] = perOp / 1024
		out["serve.gc_cpu_share"] = plainRS.gcCPUShare
	}

	spans := rec.spans()
	var covered time.Duration
	for name, d := range selfTimes(spans) {
		if name != spanPacket {
			covered += d
		}
	}
	// link.packet is the benchmark's own bracket around a packet's
	// layers; its self time is bookkeeping, not a layer.
	out["trace.coverage"] = covered.Seconds() / s.wall.Seconds()
	plainRate := plain.work / plainRS.cpu.Seconds()
	tracedRate := s.work / (rs.cpu - s.asideCPU).Seconds()
	out["trace.overhead_pct"] = 100 * (plainRate - tracedRate) / plainRate
	_, out["e2e.latency_p90_ms"] = windowedLatency(plain.ops, plain.elapsed, plain.window)
	out["trace.spans"] = float64(len(spans))
	if out["trace.coverage"] < minCoverage {
		s.failRun("trace: named layers cover %.1f%% of wall time, want ≥ %.0f%%",
			100*out["trace.coverage"], 100*minCoverage)
	}
	if err := writeSpans(o, spans); err != nil {
		return nil, nil, err
	}
	s.merge(plain)
	return s, out, nil
}

// minCoverage is the share of each workload's wall time the traced
// layers' self times must account for.
const minCoverage = 0.90
