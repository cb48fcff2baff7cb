package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"multiscatter/internal/excite"
	"multiscatter/internal/fleet"
	"multiscatter/internal/obs"
	"multiscatter/internal/sim"
)

// Fleet-dense workload: back-to-back fleet.Run calls on one 1000-tag
// office deployment (60×100 m floor, 4 receivers, 10 s span, Workers =
// nproc), the seed drawn per run from the workload seed. This is the
// documented cross-collision collapse regime: no packet is delivered
// and most tag·packets end cross-collided, which each run checks.
const (
	fleetTags      = 1000
	fleetFloorW    = 60.0
	fleetFloorH    = 100.0
	fleetReceivers = 4
	fleetSpan      = 10 * time.Second
	// fleetSeeds is the size of the seeded pool of run seeds.
	fleetSeeds = 64
)

// fleetPhases are the stage timers fleet.Run publishes, in run order.
var fleetPhases = []string{
	"fleet.timeline", "fleet.prefill", "fleet.identify",
	"fleet.contention", "fleet.downlink", "fleet.reduce",
}

type fleetBench struct {
	o     options
	base  fleet.Config
	seeds []int64
	// ref is the digest of the set-up run (seeds[0], Workers = nproc);
	// verify re-runs that seed at Workers = 1.
	ref [32]byte
}

func setupFleetDense(o options) (bench, error) {
	sc, err := excite.FindScenario("office")
	if err != nil {
		return nil, err
	}
	span := fleetSpan
	if o.small {
		span = time.Second
	}
	rng := rand.New(rand.NewSource(o.seed))
	b := &fleetBench{
		o: o,
		base: fleet.Config{
			Sources:   sc.Sources,
			Tags:      fleet.PlaceGrid(fleetTags, fleetFloorW, fleetFloorH),
			Receivers: fleet.PlaceReceivers(fleetReceivers, fleetFloorW, fleetFloorH),
			Span:      span,
			Workers:   o.clients,
		},
		seeds: make([]int64, fleetSeeds),
	}
	for i := range b.seeds {
		b.seeds[i] = 1 + rng.Int63n(1<<31)
	}
	// One untimed run grows the heap and goroutine stacks to working
	// size and gives verify its reference digest.
	res, err := b.run(b.seeds[0], o.clients, obs.NewRegistry())
	if err != nil {
		return nil, err
	}
	if b.ref, err = digest(res); err != nil {
		return nil, err
	}
	return b, nil
}

func (b *fleetBench) run(seed int64, workers int, reg *obs.Registry) (*fleet.Result, error) {
	cfg := b.base
	cfg.Seed = seed
	cfg.Workers = workers
	cfg.Obs = reg
	return fleet.Run(cfg)
}

func digest(res *fleet.Result) ([32]byte, error) {
	raw, err := json.Marshal(res)
	if err != nil {
		return [32]byte{}, err
	}
	return sha256.Sum256(raw), nil
}

// checkCollapse fails a run that left the collapse regime: any delivered
// packet, or cross-collided not the majority of tag·packet outcomes.
func checkCollapse(s *sample, seed int64, res *fleet.Result) {
	total := 0
	for _, n := range res.Outcomes {
		total += n
	}
	del, cc := res.Outcomes[sim.Delivered], res.Outcomes[sim.CrossCollided]
	if del != 0 || 2*cc <= total {
		s.fail("seed %d: %d delivered (want 0), cross-collided %d of %d outcomes (want a majority)",
			seed, del, cc, total)
	}
}

func (b *fleetBench) measure(d time.Duration, rec *recorder) (*sample, error) {
	s := &sample{layer: map[string]float64{}}
	l := rec.lane()
	var phaseNS = map[string]int64{}
	var runSelfNS, shardNS, parallelNS int64
	var hits, lookups int64
	outcomes := map[sim.Outcome]int{}
	start := time.Now()
	for i := 0; ; i++ {
		seed := b.seeds[i%len(b.seeds)]
		reg := obs.NewRegistry()
		t0 := time.Now()
		res, err := b.run(seed, b.o.clients, reg)
		t1 := time.Now()
		if err != nil {
			return nil, fmt.Errorf("fleet.Run seed %d: %w", seed, err)
		}
		s.record(t1.Sub(start), t1.Sub(t0), float64(res.NumTags)*float64(res.Events))
		checkCollapse(s, seed, res)
		if l != nil {
			// The stage timers carry durations only; the phase spans are
			// laid end to end from the run's start, in run order.
			snap := reg.Snapshot()
			root := l.newID()
			at := int64(t0.Sub(l.r.epoch))
			var phased int64
			for _, name := range fleetPhases {
				ns := snap.Stages[name].TotalNS
				l.addNS(root, name, int64(i), at, at+ns)
				at += ns
				phased += ns
				phaseNS[name] += ns
			}
			l.add(root, 0, "fleet.run", int64(i), t0, t1)
			runSelfNS += int64(t1.Sub(t0)) - phased
			shardNS += int64(snap.Histograms["fleet.shard_ns"].Sum)
			parallelNS += snap.Stages["fleet.identify"].TotalNS + snap.Stages["fleet.downlink"].TotalNS
			c := res.Cache
			lookups += c.LinkLookups + c.BitsLookups
			hits += c.LinkLookups - c.LinkMisses + c.BitsLookups - c.BitsMisses
			for o, n := range res.Outcomes {
				outcomes[o] += n
			}
		}
		if !t1.Before(start.Add(d)) {
			break
		}
	}
	s.elapsed = time.Since(start)
	s.wall = s.elapsed
	if l == nil {
		return s, nil
	}
	runs := float64(s.attempted)
	for _, name := range fleetPhases {
		s.layer[name+"_ms"] = float64(phaseNS[name]) / 1e6 / runs
	}
	s.layer["fleet.run_self_ms"] = float64(runSelfNS) / 1e6 / runs
	if shardNS > 0 {
		s.layer["fleet.shard_max_over_mean"] = float64(parallelNS) * float64(min(b.o.clients, 64)) / float64(shardNS)
	}
	if lookups > 0 {
		s.layer["fleet.cache_hit_ratio"] = float64(hits) / float64(lookups)
	}
	for _, o := range []sim.Outcome{sim.Delivered, sim.DecodedConcurrent, sim.CrossCollided,
		sim.Collided, sim.Misidentified, sim.LostDownlink} {
		s.layer["fleet.outcome."+o.String()] = float64(outcomes[o]) / runs
	}
	s.layer["fleet.runs"] = runs
	return s, nil
}

// verify re-runs the set-up seed at Workers = 1: the result must be
// byte-identical to the Workers = nproc run.
func (b *fleetBench) verify() error {
	res, err := b.run(b.seeds[0], 1, obs.NewRegistry())
	if err != nil {
		return err
	}
	got, err := digest(res)
	if err != nil {
		return err
	}
	if got != b.ref {
		return fmt.Errorf("fleet check: seed %d result at Workers=1 differs from Workers=%d", b.seeds[0], b.o.clients)
	}
	return nil
}

func (b *fleetBench) close() {}
