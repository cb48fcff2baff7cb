// Package excite models excitation traffic: per-protocol packet sources
// with rates, durations, channels and duty cycles; event timelines; and
// the time/frequency collision accounting of Figure 16 and the
// discontinuous-excitation scenarios of Figure 18.
package excite

import (
	"math"
	"math/rand"
	"sort"
	"time"

	"multiscatter/internal/radio"
)

// Source is one excitation transmitter.
type Source struct {
	// Protocol of the packets.
	Protocol radio.Protocol
	// PacketRate is the average packets per second.
	PacketRate float64
	// PacketDuration is the on-air time per packet.
	PacketDuration time.Duration
	// CenterFreqHz is the carrier center frequency (e.g. 2.417e9).
	CenterFreqHz float64
	// BandwidthHz is the occupied bandwidth.
	BandwidthHz float64
	// Period and OnFraction duty-cycle the source (Figure 18a): packets
	// are only emitted during the first OnFraction of each Period.
	// A zero Period means always on.
	Period time.Duration
	// OnFraction of the period during which the source transmits.
	OnFraction float64
	// PhaseOffset shifts the duty-cycle window.
	PhaseOffset time.Duration
}

// DutyCycle returns the fraction of airtime the source occupies.
func (s Source) DutyCycle() float64 {
	d := s.PacketRate * s.PacketDuration.Seconds()
	if s.Period > 0 && s.OnFraction > 0 && s.OnFraction < 1 {
		d *= s.OnFraction
	}
	if d > 1 {
		return 1
	}
	return d
}

// ActiveAt reports whether the duty-cycle window is open at time t.
func (s Source) ActiveAt(t time.Duration) bool {
	if s.Period <= 0 || s.OnFraction <= 0 || s.OnFraction >= 1 {
		return true
	}
	phase := (t + s.PhaseOffset) % s.Period
	return phase < time.Duration(float64(s.Period)*s.OnFraction)
}

// OverlapsFreq reports whether two sources' bands intersect.
func (s Source) OverlapsFreq(o Source) bool {
	lo1 := s.CenterFreqHz - s.BandwidthHz/2
	hi1 := s.CenterFreqHz + s.BandwidthHz/2
	lo2 := o.CenterFreqHz - o.BandwidthHz/2
	hi2 := o.CenterFreqHz + o.BandwidthHz/2
	return lo1 < hi2 && lo2 < hi1
}

// Paper's Figure 16 setups.

// NewWiFi11nSource returns the 802.11n excitation of Figure 16: 2.417
// GHz, 2000 pkt/s, 300-byte packets.
func NewWiFi11nSource() Source {
	return Source{
		Protocol:       radio.Protocol80211n,
		PacketRate:     2000,
		PacketDuration: 406 * time.Microsecond, // 300 B at MCS0 + preamble
		CenterFreqHz:   2.417e9,
		BandwidthHz:    20e6,
	}
}

// NewBLEAdvSource returns the BLE excitation of Figure 16a: 2.432 GHz,
// 34 pkt/s advertising (the measured campus rate), 37-byte packets.
func NewBLEAdvSource() Source {
	return Source{
		Protocol:       radio.ProtocolBLE,
		PacketRate:     34,
		PacketDuration: 336 * time.Microsecond,
		CenterFreqHz:   2.432e9,
		BandwidthHz:    2e6,
	}
}

// NewZigBeeSource returns the ZigBee excitation of Figure 16c: 2.415
// GHz, 20 pkt/s, 200-byte packets.
func NewZigBeeSource() Source {
	return Source{
		Protocol:       radio.ProtocolZigBee,
		PacketRate:     20,
		PacketDuration: 6624 * time.Microsecond,
		CenterFreqHz:   2.415e9,
		BandwidthHz:    2e6,
	}
}

// Event is one packet on the timeline.
type Event struct {
	// Start time of the packet.
	Start time.Duration
	// Duration on air.
	Duration time.Duration
	// Source index the packet came from.
	Source int
	// Protocol of the packet.
	Protocol radio.Protocol
}

// End returns the event's end time.
func (e Event) End() time.Duration { return e.Start + e.Duration }

// Overlaps reports whether two events intersect in time.
func (e Event) Overlaps(o Event) bool {
	return e.Start < o.End() && o.Start < e.End()
}

// Timeline generates span worth of Poisson packet arrivals from the
// sources, honoring duty-cycle windows, sorted by start time.
func Timeline(sources []Source, span time.Duration, rng *rand.Rand) []Event {
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	events, ends := sourceRuns(sources, span, rng)
	if merged, ok := mergeRuns(events, ends); ok {
		return merged
	}
	// Two sources share a start time. sort.Slice is not stable, so
	// only it reproduces the order such ties have always taken.
	sort.Slice(events, func(i, j int) bool { return events[i].Start < events[j].Start })
	return events
}

// sourceRuns draws every source's arrivals in source order and returns
// them concatenated, with ends[i] closing the run of the i-th source
// with a positive rate. Each run is in ascending start order.
func sourceRuns(sources []Source, span time.Duration, rng *rand.Rand) (events []Event, ends []int) {
	for idx, s := range sources {
		if s.PacketRate <= 0 {
			continue
		}
		mean := time.Duration(float64(time.Second) / s.PacketRate)
		t := time.Duration(float64(mean) * rng.Float64())
		for t < span {
			if s.ActiveAt(t) {
				events = append(events, Event{
					Start:    t,
					Duration: s.PacketDuration,
					Source:   idx,
					Protocol: s.Protocol,
				})
			}
			t += time.Duration(rng.ExpFloat64() * float64(mean))
		}
		ends = append(ends, len(events))
	}
	return events, ends
}

// mergeRuns k-way merges the start-sorted runs of events ending at the
// offsets in ends. Events of one source that share a start are equal
// values, so the merge equals any sort by start — sort.Slice's order
// included — unless two different sources share a start, in which case
// it reports false and the caller sorts instead. Events is not
// modified.
func mergeRuns(events []Event, ends []int) ([]Event, bool) {
	if len(ends) <= 1 || len(events) == 0 {
		return events, true
	}
	heads := make([]int, len(ends))
	for i := 1; i < len(ends); i++ {
		heads[i] = ends[i-1]
	}
	out := make([]Event, 0, len(events))
	for len(out) < len(events) {
		best := -1
		for r, h := range heads {
			if h < ends[r] && (best < 0 || events[h].Start < events[heads[best]].Start) {
				best = r
			}
		}
		e := events[heads[best]]
		heads[best]++
		if n := len(out); n > 0 && out[n-1].Start == e.Start && out[n-1].Source != e.Source {
			return nil, false
		}
		out = append(out, e)
	}
	return out, true
}

// CollisionFlags marks, for every event of a start-sorted timeline,
// whether it overlaps in time with any event from a different source.
// The tag has no channel filter, so any time overlap corrupts the
// envelope regardless of frequency separation. The flags depend only on
// the timeline, so deployment simulators (internal/sim, internal/fleet)
// compute them once and share them across tags.
func CollisionFlags(events []Event) []bool {
	flags := make([]bool, len(events))
	for i, e := range events {
		// Events are sorted by start; scan neighbours both ways.
		for j := i - 1; j >= 0 && events[j].End() > e.Start; j-- {
			if events[j].Source != e.Source {
				flags[i] = true
				break
			}
		}
		if !flags[i] {
			for j := i + 1; j < len(events) && events[j].Start < e.End(); j++ {
				if events[j].Source != e.Source {
					flags[i] = true
					break
				}
			}
		}
	}
	return flags
}

// CollisionStats summarizes one source's exposure on a timeline.
type CollisionStats struct {
	// Packets emitted by the source.
	Packets int
	// Collided packets (time-overlapping any other source's packet —
	// the tag has no channel filter, so frequency separation does not
	// protect it).
	Collided int
}

// CollisionFraction returns the collided share.
func (c CollisionStats) CollisionFraction() float64 {
	if c.Packets == 0 {
		return 0
	}
	return float64(c.Collided) / float64(c.Packets)
}

// Collisions computes per-source collision stats over a timeline.
func Collisions(events []Event, numSources int) []CollisionStats {
	out := make([]CollisionStats, numSources)
	for i, e := range events {
		if e.Source >= numSources {
			continue
		}
		out[e.Source].Packets++
		collided := false
		// Events are sorted by start; scan neighbours.
		for j := i - 1; j >= 0 && events[j].End() > e.Start; j-- {
			if events[j].Source != e.Source {
				collided = true
				break
			}
		}
		if !collided {
			for j := i + 1; j < len(events) && events[j].Start < e.End(); j++ {
				if events[j].Source != e.Source {
					collided = true
					break
				}
			}
		}
		if collided {
			out[e.Source].Collided++
		}
	}
	return out
}

// ExpectedCollisionLoss returns the analytic fraction of a target
// source's packets that overlap other sources' packets, assuming Poisson
// arrivals: 1 − exp(−Σ rate_i · (dur_i + dur_target)).
func ExpectedCollisionLoss(target Source, others []Source) float64 {
	var lambda float64
	for _, o := range others {
		rate := o.PacketRate
		if o.Period > 0 && o.OnFraction > 0 && o.OnFraction < 1 {
			rate *= o.OnFraction
		}
		lambda += rate * (o.PacketDuration + target.PacketDuration).Seconds()
	}
	if lambda <= 0 {
		return 0
	}
	return 1 - math.Exp(-lambda)
}
