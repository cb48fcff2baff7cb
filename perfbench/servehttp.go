package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"multiscatter/internal/fleet"
	"multiscatter/internal/obs"
	"multiscatter/internal/serve"
)

// Serve-http workload: a closed loop of nproc clients, each POSTing
// /jobs?wait=1 over keep-alive loopback HTTP and reading the NDJSON
// result before sending again, against serve.Handler over a
// serve.Manager with its default limits. Jobs come from a seeded mix of
// small 1 s deployments across the four scenarios with 8–64 tags and 1–4
// receivers; some add shadowing, the phase-aware channel, the
// Double-decker baseline or energy harvesting. Every job must deliver or
// joint-decode at least one packet.
const (
	// serveMix is the size of the seeded job mix the clients cycle.
	serveMix = 256
	// serveSpotEvery picks the jobs whose result bytes verify re-derives
	// from a standalone fleet.Run.
	serveSpotEvery = 97
	// serveSpotMax bounds how many results are kept for that check.
	serveSpotMax = 24
	// serveJobsPerServer is how many jobs one server lifetime takes.
	serveJobsPerServer = 400
	// serveWarmup is how many jobs each client sends during set-up.
	serveWarmup = 8
)

var serveScenarios = []string{"home", "office", "cafe", "warehouse"}

// makeServeMix generates the seeded job mix. Tags sit on an a×b grid of
// cells and every receiver shares its spot with a tag, so each receiver
// has one tag it hears far above the capture margin. Without such a tag,
// a receiver's tags collide on every packet and a job can end with
// nothing delivered. Job i takes grid i, scenario i and option i/4 of
// their lists in turn; the seed draws the cell sizes and the job seeds,
// so the mix of work is the same for every seed.
func makeServeMix(seed int64, n int) []serve.JobConfig {
	rng := rand.New(rand.NewSource(seed))
	type grid struct{ a, b, receivers int }
	var grids []grid
	for a := 1; a <= 9; a++ {
		for b := 1; b <= 9; b++ {
			for k := 1; k <= 4; k++ {
				jc := serve.JobConfig{Tags: a * b, FloorW: float64(a), FloorH: float64(b), Receivers: k}
				if jc.Tags >= 8 && jc.Tags <= 64 && receiversOnTags(jc) {
					grids = append(grids, grid{a, b, k})
				}
			}
		}
	}
	jobs := make([]serve.JobConfig, n)
	for i := range jobs {
		g := grids[i%len(grids)]
		jc := serve.JobConfig{
			Scenario:  serveScenarios[i%len(serveScenarios)],
			Tags:      g.a * g.b,
			Receivers: g.receivers,
			SpanMS:    1000,
			Seed:      1 + rng.Int63n(1<<31),
		}
		// A cell size whose floor rounds the grids apart is drawn again.
		for {
			cell := 2 + 2*rng.Float64()
			jc.FloorW, jc.FloorH = cell*float64(g.a), cell*float64(g.b)
			if receiversOnTags(jc) {
				break
			}
		}
		// Of every 20 jobs: 3 Double-decker, 3 phase-aware, 3 harvesting
		// and 5 shadowed. Harvesting is never shadowed: with both, a
		// receiver's one close tag can sleep through a whole 1 s job.
		switch o := (i / len(serveScenarios)) % 20; {
		case o < 3:
			jc.Baseline = string(fleet.BaselineDoubleDecker)
		case o < 6:
			jc.PhaseMaxDriftHz = 200
		case o < 9:
			jc.Lux = 800
		case o < 14:
			jc.ShadowSigmaDB = 3
		}
		jobs[i] = jc
	}
	return jobs
}

// receiversOnTags reports whether every receiver of jc shares its
// position with a tag.
func receiversOnTags(jc serve.JobConfig) bool {
	tags := fleet.PlaceGrid(jc.Tags, jc.FloorW, jc.FloorH)
	for _, r := range fleet.PlaceReceivers(jc.Receivers, jc.FloorW, jc.FloorH) {
		on := false
		for _, t := range tags {
			if math.Hypot(t.X-r.X, t.Y-r.Y) < 1e-6 {
				on = true
				break
			}
		}
		if !on {
			return false
		}
	}
	return true
}

type serveBench struct {
	o      options
	mix    []serve.JobConfig
	bodies [][]byte
	next   atomic.Int64 // jobs issued over the whole run; picks the mix entry
	server *server

	mu    sync.Mutex
	spots []spot
}

// server is one server lifetime: a Manager behind serve.Handler on a
// loopback listener, and the keep-alive client that drives it. The
// Manager keeps every finished job in memory, so the loop restarts the
// server after serveJobsPerServer jobs; the job table, and with it the
// heap, then stays the same size however fast jobs complete.
type server struct {
	mgr    *serve.Manager
	srv    *http.Server
	served chan error
	url    string
	client *http.Client
	issued atomic.Int64
}

// spot is one job result kept for the byte-for-byte check.
type spot struct {
	mix    int
	result []byte
}

func setupServeHTTP(o options) (bench, error) {
	n := serveMix
	if o.small {
		n = 8
	}
	b := &serveBench{o: o, mix: makeServeMix(o.seed, n)}
	for _, jc := range b.mix {
		body, err := json.Marshal(jc)
		if err != nil {
			return nil, err
		}
		b.bodies = append(b.bodies, body)
	}
	sv, err := b.startServer(serveWarmup)
	if err != nil {
		return nil, err
	}
	b.server = sv
	return b, nil
}

// startServer starts a server and has every client send warmup jobs,
// which opens the keep-alive connections before any job is timed.
func (b *serveBench) startServer(warmup int) (*server, error) {
	reg := obs.NewRegistry()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	mgr := serve.NewManager(serve.Config{Obs: reg})
	sv := &server{
		mgr:    mgr,
		srv:    &http.Server{Handler: serve.Handler(mgr, reg)},
		served: make(chan error, 1),
		url:    "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConns:        b.o.clients,
			MaxIdleConnsPerHost: b.o.clients,
		}},
	}
	go func() { sv.served <- sv.srv.Serve(ln) }()
	var wg sync.WaitGroup
	errs := make([]error, b.o.clients)
	for c := 0; c < b.o.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; k < warmup && errs[c] == nil; k++ {
				_, _, errs[c] = sv.submit(b.bodies[(c+k*b.o.clients)%len(b.bodies)])
			}
		}(c)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		sv.close()
		return nil, fmt.Errorf("warm-up job: %w", err)
	}
	return sv, nil
}

// close stops the server, waits for its Serve loop and drains the
// Manager.
func (sv *server) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	sv.srv.Shutdown(ctx)
	<-sv.served
	sv.client.CloseIdleConnections()
	sv.mgr.Close()
}

// jobLine is the terminal NDJSON line of a job stream.
type jobLine struct {
	Event  string          `json:"event"`
	ID     string          `json:"id"`
	State  string          `json:"state"`
	Error  string          `json:"error"`
	Result json.RawMessage `json:"result"`
}

// submit posts one job and reads its NDJSON stream to the end.
func (sv *server) submit(body []byte) (*jobLine, time.Duration, error) {
	t0 := time.Now()
	resp, err := sv.client.Post(sv.url+"/jobs?wait=1", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, time.Since(t0), err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(t0)
	if err != nil {
		return nil, lat, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, lat, fmt.Errorf("POST /jobs: %s: %s", resp.Status, bytes.TrimSpace(data))
	}
	data = bytes.TrimRight(data, "\n")
	last := data[bytes.LastIndexByte(data, '\n')+1:]
	var jl jobLine
	if err := json.Unmarshal(last, &jl); err != nil {
		return nil, lat, fmt.Errorf("job stream: %w", err)
	}
	if jl.Event != "result" {
		return &jl, lat, fmt.Errorf("job %s ended %s: %s", jl.ID, jl.State, jl.Error)
	}
	return &jl, lat, nil
}

// traced is one traced request: its client span and job ID.
type traced struct {
	lane       *lane
	span       int64
	start, end int64
	jobID      string
}

// jobNum is the number in a "job-<n>" ID, the trace's request ID.
func jobNum(id string) int64 {
	n, _ := strconv.ParseInt(strings.TrimPrefix(id, "job-"), 10, 64)
	return n
}

func (b *serveBench) measure(d time.Duration, rec *recorder) (*sample, error) {
	out := &sample{window: time.Second, layer: map[string]float64{}}
	tallies := make([]serveTally, b.o.clients)
	var svc, jobs obs.Snapshot
	var elapsed time.Duration
	for elapsed < d {
		if b.server.issued.Load() >= serveJobsPerServer {
			t0 := time.Now()
			b.server.close()
			sv, err := b.startServer(1)
			if err != nil {
				return nil, fmt.Errorf("server restart: %w", err)
			}
			b.server = sv
			elapsed += time.Since(t0)
		}
		var before [2]obs.Snapshot
		if rec != nil {
			var err error
			if before, err = b.server.snapshots(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		b.runClients(elapsed, d, rec, out, tallies)
		elapsed += time.Since(t0)
		if rec == nil {
			continue
		}
		// Outside the timed window: this server's own figures
		// and the traced jobs' span trees, read before the server stops.
		cpu0 := processCPU()
		after, err := b.server.snapshots()
		if err != nil {
			return nil, err
		}
		svc = svc.Merge(after[0].Sub(before[0]))
		jobs = jobs.Merge(after[1].Sub(before[1]))
		for c := range tallies {
			for _, r := range tallies[c].requests {
				if err := b.server.importSpans(r); err != nil {
					return nil, err
				}
			}
			tallies[c].requests = tallies[c].requests[:0]
		}
		out.asideCPU += processCPU() - cpu0
	}
	out.elapsed = elapsed
	if rec == nil {
		return out, nil
	}
	var resultBytes, delivered, packets int64
	for _, t := range tallies {
		resultBytes += t.resultBytes
		delivered += t.delivered
		packets += t.packets
	}
	histMean := func(name string) float64 {
		h := svc.Histograms[name]
		if h.Count == 0 {
			return 0
		}
		return h.Sum / float64(h.Count)
	}
	done := float64(out.attempted - out.failed)
	out.layer["serve.run_ms"] = histMean("serve.latency.run_ms")
	out.layer["serve.stream_ms"] = histMean("serve.latency.stream_ms")
	var clientMS []float64
	for _, o := range out.ops {
		if o.work > 0 {
			clientMS = append(clientMS, float64(o.lat)/1e6)
		}
	}
	out.layer["serve.http_overhead_ms"] = mean(clientMS) - histMean("serve.latency.e2e_ms")
	for _, ph := range []string{"timeline", "prefill", "identify", "contention", "downlink"} {
		st := jobs.Stages["fleet."+ph]
		if st.Count > 0 {
			out.layer["serve.fleet."+ph+"_ms"] = float64(st.TotalNS) / 1e6 / float64(st.Count)
		}
	}
	out.layer["serve.result_bytes_per_job"] = float64(resultBytes) / math.Max(done, 1)
	out.layer["serve.delivered_share"] = float64(delivered) / math.Max(float64(packets), 1)
	out.layer["serve.jobs"] = done
	return out, nil
}

// runClients runs the closed loop on the current server until the
// loop has run for d in all, or until the server has taken
// serveJobsPerServer jobs; base is how long the loop ran before.
func (b *serveBench) runClients(base, d time.Duration, rec *recorder, out *sample, tallies []serveTally) {
	sv := b.server
	start := time.Now()
	deadline := start.Add(d - base)
	samples := make([]sample, b.o.clients)
	var wg sync.WaitGroup
	for c := 0; c < b.o.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			s, t, l := &samples[c], &tallies[c], rec.lane()
			defer func() { s.wall = time.Since(start) }()
			for sv.issued.Add(1) <= serveJobsPerServer {
				k := int(b.next.Add(1) - 1)
				mi := k % len(b.mix)
				id := l.newID()
				t0 := time.Now()
				jl, lat, err := sv.submit(b.bodies[mi])
				now := time.Now()
				if err != nil {
					// A failed job misses any latency limit.
					s.record(base+now.Sub(start), d, 0)
					s.fail("job %d (mix %d): %v", k, mi, err)
				} else {
					s.record(base+now.Sub(start), lat, 1)
					if l != nil {
						l.add(id, 0, "serve.request", jobNum(jl.ID), t0, t0.Add(lat))
						t.requests = append(t.requests, traced{lane: l, span: id,
							start: int64(t0.Sub(l.r.epoch)), end: int64(t0.Add(lat).Sub(l.r.epoch)), jobID: jl.ID})
					}
					b.checkJob(s, t, k, mi, jl)
				}
				if !now.Before(deadline) {
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for c := range samples {
		out.merge(&samples[c])
	}
}

// serveTally is one client's running totals.
type serveTally struct {
	resultBytes, delivered, packets int64
	requests                        []traced
}

// checkJob applies the degeneracy guard to one finished job and keeps
// every serveSpotEvery-th result for verify.
func (b *serveBench) checkJob(s *sample, t *serveTally, k, mi int, jl *jobLine) {
	outcomes, err := fleetOutcomes(jl.Result)
	if err != nil {
		s.fail("job %s (mix %d): result: %v", jl.ID, mi, err)
		return
	}
	got := outcomes["delivered"] + outcomes["decoded-concurrent"]
	if got == 0 {
		s.fail("job %s (mix %d): nothing delivered or joint-decoded: %v", jl.ID, mi, outcomes)
	}
	t.resultBytes += int64(len(jl.Result))
	t.delivered += int64(got)
	for _, n := range outcomes {
		t.packets += int64(n)
	}
	if k%serveSpotEvery == 0 {
		b.mu.Lock()
		if len(b.spots) < serveSpotMax {
			b.spots = append(b.spots, spot{mix: mi, result: append([]byte(nil), jl.Result...)})
		}
		b.mu.Unlock()
	}
}

// fleetOutcomes decodes the fleet-wide outcome histogram of a marshalled
// fleet.Result without decoding the rest: the top-level "outcomes"
// field follows the per-tag and per-protocol ones, so it is the last.
func fleetOutcomes(result []byte) (map[string]int, error) {
	i := bytes.LastIndex(result, []byte(`"outcomes":`))
	if i < 0 {
		return nil, errors.New("no outcomes field")
	}
	var out map[string]int
	dec := json.NewDecoder(bytes.NewReader(result[i+len(`"outcomes":`):]))
	if err := dec.Decode(&out); err != nil {
		return nil, fmt.Errorf("outcomes: %w", err)
	}
	return out, nil
}

// snapshots fetches the service registry and the merged per-job engine
// metrics over HTTP.
func (sv *server) snapshots() ([2]obs.Snapshot, error) {
	var out [2]obs.Snapshot
	for i, path := range []string{"/metrics", "/metrics/jobs"} {
		if err := sv.getJSON(path, &out[i]); err != nil {
			return out, err
		}
	}
	return out, nil
}

func (sv *server) getJSON(path string, v any) error {
	resp, err := sv.client.Get(sv.url + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	return nil
}

// importSpans fetches one traced job's server spans and engine stage
// timers and hangs them under the client's request span: the server's
// job tree (job → queued, running) with the fleet.Run phases laid end
// to end inside running. Server spans are clipped to their parent, so
// each layer's self time counts once.
func (sv *server) importSpans(r traced) error {
	var spans []obs.SpanSnapshot
	if err := sv.getJSON("/jobs/"+r.jobID+"/spans", &spans); err != nil {
		return err
	}
	var snap obs.Snapshot
	if err := sv.getJSON("/jobs/"+r.jobID+"/metrics", &snap); err != nil {
		return err
	}
	l := r.lane
	req := jobNum(r.jobID)
	type bounds struct{ id, lo, hi int64 }
	ids := map[int64]bounds{0: {r.span, r.start, r.end}}
	for _, sp := range spans {
		parent, ok := ids[sp.Parent]
		if !ok || sp.Name == "streaming" {
			// A ?wait=1 stream overlaps the whole job; its time is in
			// serve.stream_ms and its tail in the client's span.
			continue
		}
		end := sp.EndUnixNS
		if end == 0 {
			end = sp.StartUnixNS + sp.DurNS
		}
		lo := max(l.unixNS(sp.StartUnixNS), parent.lo)
		hi := min(l.unixNS(end), parent.hi)
		hi = max(hi, lo)
		id := l.addNS(parent.id, "serve."+sp.Name, req, lo, hi)
		ids[sp.ID] = bounds{id, lo, hi}
		if sp.Name != "running" {
			continue
		}
		run := snap.Stages["fleet.run"].TotalNS
		runID := l.addNS(id, "fleet.run", req, lo, min(lo+run, hi))
		at := lo
		for _, name := range fleetPhases {
			ns := snap.Stages[name].TotalNS
			l.addNS(runID, name, req, at, min(at+ns, hi))
			at += ns
		}
	}
	return nil
}

// verify re-derives the kept results from standalone fleet.Run calls:
// each must match the served bytes exactly.
func (b *serveBench) verify() error {
	b.mu.Lock()
	spots := append([]spot(nil), b.spots...)
	b.mu.Unlock()
	if len(spots) == 0 {
		return errors.New("serve check: no result was kept for the byte-for-byte check")
	}
	for _, sp := range spots {
		cfg, err := b.mix[sp.mix].FleetConfig()
		if err != nil {
			return err
		}
		cfg.Obs = obs.NewRegistry()
		res, err := fleet.Run(cfg)
		if err != nil {
			return fmt.Errorf("serve check: mix %d: %w", sp.mix, err)
		}
		want, err := json.Marshal(res)
		if err != nil {
			return err
		}
		if !bytes.Equal(sp.result, want) {
			return fmt.Errorf("serve check: mix %d: served result (%d B) differs from standalone fleet.Run (%d B)",
				sp.mix, len(sp.result), len(want))
		}
	}
	return nil
}

func (b *serveBench) close() { b.server.close() }
