// Package sim is a discrete-event simulator for complete multiscatter
// deployments: excitation sources emit packet timelines, the tag harvests
// energy, identifies each arriving packet, and backscatters tag data over
// calibrated per-protocol links to a receiver. It produces per-packet
// outcomes, per-protocol accounting and bucketed throughput timelines —
// the dynamic counterpart of the paper's §4.2 excitation-diversity
// experiments and §3 energy analysis.
package sim

import (
	"fmt"
	"math/rand"
	"time"

	"multiscatter/internal/channel"
	"multiscatter/internal/core"
	"multiscatter/internal/energy"
	"multiscatter/internal/excite"
	"multiscatter/internal/obs"
	"multiscatter/internal/obs/ptrace"
	"multiscatter/internal/overlay"
	"multiscatter/internal/radio"
)

// Outcome classifies what happened to one excitation packet at the tag.
type Outcome int

const (
	// Delivered: identified, modulated, and decoded by the receiver.
	Delivered Outcome = iota
	// TagAsleep: the harvester had no energy budget for this packet.
	TagAsleep
	// Collided: another packet overlapped it at the tag (no channel
	// filter), so identification failed.
	Collided
	// Misidentified: the matcher decided wrongly or not at all.
	Misidentified
	// Unsupported: identified correctly but outside the tag's protocol
	// set (single-protocol comparison tags).
	Unsupported
	// LostDownlink: the backscattered packet did not reach the receiver.
	LostDownlink
	// CrossCollided: another tag of the same fleet backscattered the same
	// excitation packet and neither cleared the capture margin at the
	// receiver (internal/fleet deployments only).
	CrossCollided
	// DecodedConcurrent: several tags of the fleet backscattered the same
	// 802.11n excitation packet and the receiver recovered this tag
	// jointly via subcarrier-redundancy concurrent OFDM decoding instead
	// of capture arbitration (internal/fleet deployments only).
	DecodedConcurrent
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case Delivered:
		return "delivered"
	case TagAsleep:
		return "tag-asleep"
	case Collided:
		return "collided"
	case Misidentified:
		return "misidentified"
	case Unsupported:
		return "unsupported"
	case LostDownlink:
		return "lost-downlink"
	case CrossCollided:
		return "cross-collided"
	case DecodedConcurrent:
		return "decoded-concurrent"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// TagProfile describes the simulated tag's behaviour.
type TagProfile struct {
	// Supported protocols; empty means all four.
	Supported []radio.Protocol
	// IdentAccuracy is the per-protocol identification probability for
	// clean (non-collided) packets. Zero entries default to the paper's
	// measured 2.5 Msps extended-window figures.
	IdentAccuracy map[radio.Protocol]float64
	// Mode is the overlay operating mode (default Mode1).
	Mode overlay.Mode
}

// DefaultIdentAccuracy is the paper's per-protocol identification
// accuracy at the 2.5 Msps operating point (§1: 94.3% 802.11n, 95.9%
// 802.11b, 81.8% BLE, 99.9% ZigBee).
var DefaultIdentAccuracy = map[radio.Protocol]float64{
	radio.Protocol80211n: 0.943,
	radio.Protocol80211b: 0.959,
	radio.ProtocolBLE:    0.818,
	radio.ProtocolZigBee: 0.999,
}

// EnergyConfig enables harvesting-limited operation.
type EnergyConfig struct {
	// Lux is the light level driving the MP3-37 panel.
	Lux float64
	// LoadW is the tag's active power draw (default: the COTS
	// prototype's 279.5 mW).
	LoadW float64
	// StartCharged starts the capacitor at the 4.1 V threshold.
	StartCharged bool
	// HarvestJitterPct adds multiplicative Gaussian flicker to the
	// harvested power (relative σ per step), drawn from the dedicated
	// StreamEnergyHarvest stream. Zero keeps harvesting deterministic.
	HarvestJitterPct float64
}

// NewHarvester builds a tag's harvester: the configured load (default
// the COTS prototype's 279.5 mW), harvest jitter drawn from the stream
// jitterRNG returns (called only when HarvestJitterPct > 0, so a
// jitter-free tag seeds no stream), and a capacitor charged to the wake
// threshold when StartCharged.
func (c *EnergyConfig) NewHarvester(jitterRNG func() *rand.Rand) *energy.Harvester {
	load := c.LoadW
	if load <= 0 {
		load = 0.2795
	}
	h := energy.NewHarvester(energy.NewMP337(), load)
	if c.HarvestJitterPct > 0 {
		h.JitterPct = c.HarvestJitterPct
		h.Rand = jitterRNG()
	}
	if c.StartCharged {
		for !h.Step(0.05, 1e9) {
		}
	}
	return h
}

// Config describes one simulated deployment.
type Config struct {
	// Sources emit excitation packets.
	Sources []excite.Source
	// Channel model (default LoS).
	Channel *channel.Model
	// ReceiverDistanceM from tag to receiver (default 2 m).
	ReceiverDistanceM float64
	// Tag behaviour.
	Tag TagProfile
	// Energy limits operation when non-nil; nil means always powered.
	Energy *EnergyConfig
	// Span of the simulation.
	Span time.Duration
	// BucketMS sizes the throughput timeline buckets (default 500 ms).
	BucketMS int
	// Seed for reproducibility.
	Seed int64
	// Trace, when non-nil, records every sampled packet's lifecycle
	// into the flight recorder (single shard, tag 0). Events carry
	// sim-time only, so identically-seeded runs drain byte-identical
	// streams; nil keeps the hot path to one pointer check per packet.
	Trace *ptrace.Recorder
}

// ProtocolStats accumulates per-protocol accounting.
type ProtocolStats struct {
	// Packets seen on air.
	Packets int
	// Outcomes histogram.
	Outcomes map[Outcome]int
	// TagBits delivered.
	TagBits int
	// ProductiveBits delivered alongside.
	ProductiveBits int
}

// Result is the simulation output.
type Result struct {
	// Span simulated.
	Span time.Duration
	// PerProtocol accounting.
	PerProtocol map[radio.Protocol]*ProtocolStats
	// TagKbps is the overall delivered tag-data rate.
	TagKbps float64
	// BusyFraction is the share of packets the tag acted on
	// (delivered / total seen while awake).
	BusyFraction float64
	// Buckets is the tag-throughput timeline (kbps per bucket).
	Buckets []float64
	// BucketDur is the bucket duration.
	BucketDur time.Duration
	// EnergyRounds counts harvester discharge rounds (0 when unlimited).
	EnergyRounds int
	// RSSIdBm is the per-protocol backscatter signal strength at the
	// receiver, shadowing included — the working point the downlink
	// decisions were made at.
	RSSIdBm map[radio.Protocol]float64
}

// PacketBits returns (productive, tag) bits carried by one packet of
// protocol p with the given on-air duration under mode m — the per-packet
// overlay capacity both internal/sim and internal/fleet account with.
func PacketBits(p radio.Protocol, dur time.Duration, m overlay.Mode) (int, int) {
	g, ok := overlay.Gammas[p]
	if !ok {
		return 0, 0
	}
	sym := overlay.SymbolDuration(p)
	tr := overlay.DefaultTraffic(p)
	overhead := time.Duration(tr.OverheadUS*1e3) * time.Nanosecond
	payload := int((dur - overhead) / sym)
	if payload <= 0 {
		return 0, 0
	}
	k := overlay.Kappa(p, m, payload/g)
	seqs := payload / k
	if seqs < 1 {
		return 0, 0
	}
	return seqs, seqs * (k/g - 1)
}

// Run executes the simulation.
func Run(cfg Config) (*Result, error) {
	defer obs.Default().Stage("sim.run").ObserveSince(time.Now())
	obs.Default().Counter("sim.runs").Inc()
	if len(cfg.Sources) == 0 {
		return nil, fmt.Errorf("sim: no excitation sources")
	}
	if cfg.Span <= 0 {
		cfg.Span = 10 * time.Second
	}
	if cfg.ReceiverDistanceM == 0 {
		cfg.ReceiverDistanceM = 2
	}
	ch := cfg.Channel
	if ch == nil {
		ch = channel.NewLoS()
	}
	mode := cfg.Tag.Mode
	if mode == 0 {
		mode = overlay.Mode1
	}
	bucketMS := cfg.BucketMS
	if bucketMS <= 0 {
		bucketMS = 500
	}
	rng := SeedRNG(cfg.Seed, StreamDeployment)

	supported := map[radio.Protocol]bool{}
	if len(cfg.Tag.Supported) == 0 {
		for _, p := range radio.Protocols {
			supported[p] = true
		}
	} else {
		for _, p := range cfg.Tag.Supported {
			supported[p] = true
		}
	}
	accuracy := func(p radio.Protocol) float64 {
		if a, ok := cfg.Tag.IdentAccuracy[p]; ok && a > 0 {
			return a
		}
		return DefaultIdentAccuracy[p]
	}
	// One shadowing draw per protocol link, taken at setup in the fixed
	// radio.Protocols order from a dedicated stream: the deployment is
	// static, so each link holds one consistent fade for the whole run,
	// and identification draws (StreamDeployment) stay untouched whether
	// or not shadowing is enabled.
	links := map[radio.Protocol]*core.Link{}
	shadow := map[radio.Protocol]float64{}
	shadowRNG := SeedRNG(cfg.Seed, StreamChannelShadow)
	for _, p := range radio.Protocols {
		links[p] = core.NewLink(p, ch)
		shadow[p] = links[p].ShadowDB(shadowRNG)
	}

	var harvester *energy.Harvester
	var lux float64
	if cfg.Energy != nil {
		harvester = cfg.Energy.NewHarvester(func() *rand.Rand {
			return SeedRNG(cfg.Seed, StreamEnergyHarvest)
		})
		lux = cfg.Energy.Lux
	}

	events := excite.Timeline(cfg.Sources, cfg.Span, rng)
	obs.Default().Counter("sim.packets").Add(int64(len(events)))
	collided := excite.CollisionFlags(events)
	bucketDur := time.Duration(bucketMS) * time.Millisecond
	res := &Result{
		Span:        cfg.Span,
		PerProtocol: map[radio.Protocol]*ProtocolStats{},
		Buckets:     make([]float64, int(cfg.Span/bucketDur)+1),
		BucketDur:   bucketDur,
		RSSIdBm:     map[radio.Protocol]float64{},
	}
	for _, p := range radio.Protocols {
		res.RSSIdBm[p] = links[p].RSSIAt(cfg.ReceiverDistanceM, shadow[p])
	}
	stat := func(p radio.Protocol) *ProtocolStats {
		s := res.PerProtocol[p]
		if s == nil {
			s = &ProtocolStats{Outcomes: map[Outcome]int{}}
			res.PerProtocol[p] = s
		}
		return s
	}

	// The flight recorder sees the single tag as shard 0 / tag 0; every
	// event is timestamped from the timeline, so the drained stream is
	// a pure function of (seed, config).
	cfg.Trace.Configure(1)
	tr := cfg.Trace.Shard(0)

	clock := time.Duration(0)
	wasActive := harvester == nil || harvester.Active()
	totalAwake, delivered := 0, 0
	for i, e := range events {
		s := stat(e.Protocol)
		s.Packets++
		traced := tr != nil && tr.Wants(int32(i))
		rec := func(stage ptrace.Stage, detail string) {
			tr.Record(ptrace.Event{
				TUS:    int64(e.Start / time.Microsecond),
				Packet: int32(i), Proto: e.Protocol.String(),
				Stage: stage, Detail: detail,
			})
		}
		if traced {
			air := ""
			if collided[i] {
				air = "air-collided"
			}
			tr.Record(ptrace.Event{
				TUS: int64(e.Start / time.Microsecond), DurUS: int64(e.Duration / time.Microsecond),
				Packet: int32(i), Proto: e.Protocol.String(),
				Stage: ptrace.StageExcite, Detail: air,
			})
		}

		// Advance the harvester to this packet's start.
		if harvester != nil {
			for clock < e.Start {
				step := e.Start - clock
				if step > 10*time.Millisecond {
					step = 10 * time.Millisecond
				}
				active := harvester.Step(step.Seconds(), lux)
				if active && !wasActive {
					res.EnergyRounds++
				}
				wasActive = active
				clock += step
			}
			if !harvester.Active() {
				s.Outcomes[TagAsleep]++
				if traced {
					rec(ptrace.StageEnergy, "asleep")
					rec(ptrace.StageOutcome, TagAsleep.String())
				}
				continue
			}
			// The backscatter operation itself consumes the packet's
			// worth of active time.
			harvester.Step(e.Duration.Seconds(), lux)
			if traced {
				rec(ptrace.StageEnergy, "awake")
			}
		}
		totalAwake++

		outcome := func() Outcome {
			if collided[i] {
				return Collided
			}
			if rng.Float64() > accuracy(e.Protocol) {
				return Misidentified
			}
			if !supported[e.Protocol] {
				return Unsupported
			}
			if !links[e.Protocol].InRangeAt(cfg.ReceiverDistanceM, shadow[e.Protocol]) {
				return LostDownlink
			}
			return Delivered
		}()
		s.Outcomes[outcome]++
		if traced {
			// Reconstruct the stage verdicts from the outcome: the
			// decision chain is fixed, so this is exactly the path the
			// packet took.
			switch outcome {
			case Collided:
				rec(ptrace.StageIdentify, "air-collision")
			case Misidentified:
				rec(ptrace.StageIdentify, "missed")
			case Unsupported:
				rec(ptrace.StageIdentify, "ok")
			case LostDownlink:
				rec(ptrace.StageIdentify, "ok")
				rec(ptrace.StagePlan, mode.String())
				rec(ptrace.StageDemod, "out-of-range")
			case Delivered:
				rec(ptrace.StageIdentify, "ok")
				rec(ptrace.StagePlan, mode.String())
				rec(ptrace.StageDemod, fmt.Sprintf("ok rssi=%.1fdBm", res.RSSIdBm[e.Protocol]))
			}
			rec(ptrace.StageOutcome, outcome.String())
		}
		if outcome != Delivered {
			continue
		}
		delivered++
		prod, tagBits := PacketBits(e.Protocol, e.Duration, mode)
		s.TagBits += tagBits
		s.ProductiveBits += prod
		b := int(e.Start / bucketDur)
		if b < len(res.Buckets) {
			res.Buckets[b] += float64(tagBits)
		}
	}
	var totalTagBits int
	for _, s := range res.PerProtocol {
		totalTagBits += s.TagBits
	}
	res.TagKbps = float64(totalTagBits) / cfg.Span.Seconds() / 1e3
	if totalAwake > 0 {
		res.BusyFraction = float64(delivered) / float64(totalAwake)
	}
	for b := range res.Buckets {
		res.Buckets[b] = res.Buckets[b] / bucketDur.Seconds() / 1e3
	}
	return res, nil
}
