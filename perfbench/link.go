package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"multiscatter/internal/channel"
	"multiscatter/internal/core"
	"multiscatter/internal/overlay"
	"multiscatter/internal/phy/ofdm"
	"multiscatter/internal/radio"
)

// Link workload: a closed loop of packets over the waveform chain, one
// goroutine per core, each with its own tag and codecs. A single-tag
// packet gets overlay.NewPlan + Codec.Build (modulate), core.Tag.Identify
// on the clean excitation (identify), Codec.ApplyTag (apply_tag),
// channel.AWGN (channel) and Codec.Decode (decode). A share of the
// 802.11n frames instead carries 2–4 concurrent tags through
// ofdm.ApplyConcurrentTags and is recovered by ofdm.JointDemodulator
// against the clean excitation (joint_decode). core.Receiver.Recover is
// left out: its brute-force CFO search would swamp every other layer.
const (
	// linkInputs is the size of the seeded input pool the loop cycles.
	linkInputs = 512
	// linkProductiveBits sizes each carrier: one sequence per bit.
	linkProductiveBits = 16
	// linkOFDMPayload is the byte payload of a concurrent-tag frame.
	linkOFDMPayload = 120
	// linkMaxPacketBER bounds one packet's tag bit error rate, and
	// linkMaxTagBER the loop's; a packet above its bound counts as
	// failed. At the SNRs of linkSNRs no tag bit is expected to flip.
	linkMaxPacketBER = 0.05
	linkMaxTagBER    = 1e-3
	// linkWarmup is how many inputs each lane decodes during set-up.
	linkWarmup = 64
)

// linkSNRs is the per-packet SNR mix in dB.
var linkSNRs = []float64{14, 18, 22, 26}

// Span names of the link layers.
const (
	spanPacket      = "link.packet"
	spanModulate    = "link.modulate"
	spanIdentify    = "link.identify"
	spanApplyTag    = "link.apply_tag"
	spanChannel     = "link.channel"
	spanDecode      = "link.decode"
	spanJointDecode = "link.joint_decode"
)

// linkInput is one seeded packet.
type linkInput struct {
	proto radio.Protocol
	snrDB float64
	// single-tag overlay packets
	productive []byte
	tagBits    []byte
	// concurrent-tag 802.11n frames (tags > 0)
	tags     int
	payload  []byte
	tagsBits [][]byte
}

type linkBench struct {
	o      options
	inputs []linkInput
	lanes  []*linkLane
}

// linkLane is one load goroutine's private pipeline state.
type linkLane struct {
	tag   *core.Tag
	mod   *ofdm.Modulator
	demod *ofdm.Demodulator
	joint map[int]*ofdm.JointDemodulator
	rng   *rand.Rand
	clean []complex128

	// per-loop tallies
	identified, packets int
	tagErrors, tagBits  int
	decodeNS            [radio.Protocol80211n + 1]int64
	decodeN             [radio.Protocol80211n + 1]int64
}

var ofdmCfg = ofdm.Config{Modulation: ofdm.BPSK}

func setupLink(o options) (bench, error) {
	n := linkInputs
	if o.small {
		n = 16
	}
	b := &linkBench{o: o, inputs: makeLinkInputs(o.seed, n)}
	// Build every lane and push the first inputs through it, so lazy
	// modems, FFT plans and scratch exist before timing starts.
	b.lanes = make([]*linkLane, o.clients)
	errs := make([]error, o.clients)
	var wg sync.WaitGroup
	for i := range b.lanes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ln, err := newLinkLane(o.seed, i)
			if err != nil {
				errs[i] = err
				return
			}
			var s sample
			for k := 0; k < min(len(b.inputs), linkWarmup); k++ {
				ln.packet(&b.inputs[k], int64(k), nil, &s)
			}
			if s.failed > 0 {
				errs[i] = fmt.Errorf("warm-up: %v", s.violations)
			}
			b.lanes[i] = ln
		}(i)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return b, nil
}

// makeLinkInputs generates the seeded packet pool: the four protocols
// in turn, with two of every five 802.11n frames carrying 2, 3 or 4
// concurrent tags in turn. The seed draws the bits, payloads and SNRs;
// the mix of work is the same for every seed, so the seed does not move
// the figures.
func makeLinkInputs(seed int64, n int) []linkInput {
	rng := rand.New(rand.NewSource(seed))
	bits := func(k int) []byte {
		out := make([]byte, k)
		for i := range out {
			out[i] = byte(rng.Intn(2))
		}
		return out
	}
	// Disjoint subcarrier groups carry one tag bit per OFDM symbol.
	_, info := ofdm.NewModulator(ofdmCfg).Modulate(radio.Packet{Payload: make([]byte, linkOFDMPayload)})
	symbols := info.NumSymbols()
	in := make([]linkInput, n)
	for i := range in {
		p := radio.Protocols[i%len(radio.Protocols)]
		x := linkInput{proto: p, snrDB: linkSNRs[rng.Intn(len(linkSNRs))]}
		if j := i / len(radio.Protocols); p == radio.Protocol80211n && j%5 < 2 {
			x.tags = 2 + (2*(j/5)+j%5)%3
			x.payload = make([]byte, linkOFDMPayload)
			for j := range x.payload {
				x.payload[j] = byte(rng.Intn(256))
			}
			x.tagsBits = make([][]byte, x.tags)
			for k := range x.tagsBits {
				x.tagsBits[k] = bits(symbols)
			}
		} else {
			x.productive = bits(linkProductiveBits)
			plan, err := overlay.NewPlan(p, overlay.Mode1, x.productive)
			if err != nil {
				panic(err) // the protocols and mode are fixed above
			}
			x.tagBits = bits(plan.TagCapacity())
		}
		in[i] = x
	}
	return in
}

func newLinkLane(seed int64, lane int) (*linkLane, error) {
	tg, err := core.NewTag(core.TagConfig{})
	if err != nil {
		return nil, err
	}
	ln := &linkLane{
		tag:   tg,
		mod:   ofdm.NewModulator(ofdmCfg),
		demod: ofdm.NewDemodulator(ofdmCfg),
		joint: map[int]*ofdm.JointDemodulator{},
		rng:   rand.New(rand.NewSource(seed*7919 + int64(lane))),
	}
	for k := 2; k <= ofdm.MaxSubcarrierGroups; k++ {
		jd, err := ofdm.NewJointDemodulator(ofdmCfg, ofdm.AssignConcurrent(k))
		if err != nil {
			return nil, err
		}
		ln.joint[k] = jd
	}
	return ln, nil
}

// packet pushes one input through the chain, recording its spans on l,
// and returns the packet's latency.
func (ln *linkLane) packet(in *linkInput, req int64, l *lane, s *sample) time.Duration {
	if in.tags > 0 {
		return ln.concurrent(in, req, l, s)
	}
	root := l.newID()
	t0 := time.Now()
	codec := ln.tag.Codecs[in.proto]
	plan, err := overlay.NewPlan(in.proto, overlay.Mode1, in.productive)
	var carrier *overlay.Carrier
	if err == nil {
		carrier, err = codec.Build(plan)
	}
	t1 := time.Now()
	l.add(l.newID(), root, spanModulate, req, t0, t1)
	if err != nil {
		s.fail("packet %d (%v): build: %v", req, in.proto, err)
		return t1.Sub(t0)
	}
	got, _ := ln.tag.Identify(carrier.Waveform.IQ, carrier.Waveform.Rate)
	t2 := time.Now()
	l.add(l.newID(), root, spanIdentify, req, t1, t2)
	codec.ApplyTag(carrier, in.tagBits)
	t3 := time.Now()
	l.add(l.newID(), root, spanApplyTag, req, t2, t3)
	channel.AWGN(carrier.Waveform.IQ, in.snrDB, ln.rng)
	t4 := time.Now()
	l.add(l.newID(), root, spanChannel, req, t3, t4)
	res, err := codec.Decode(carrier)
	t5 := time.Now()
	l.add(l.newID(), root, spanDecode, req, t4, t5)
	l.add(root, 0, spanPacket, req, t0, t5)
	if l != nil {
		ln.decodeNS[in.proto] += int64(t5.Sub(t4))
		ln.decodeN[in.proto]++
	}

	ln.packets++
	if got == in.proto {
		ln.identified++
	}
	if err != nil {
		s.fail("packet %d (%v): decode: %v", req, in.proto, err)
		return t5.Sub(t0)
	}
	prodErrs, tagErrs := res.BitErrors(plan, in.tagBits)
	ln.tagErrors += tagErrs
	ln.tagBits += len(in.tagBits)
	if got != in.proto || prodErrs > 0 || tooManyErrors(tagErrs, len(in.tagBits)) {
		s.fail("packet %d (%v): identified as %v, %d productive and %d of %d tag bits wrong",
			req, in.proto, got, prodErrs, tagErrs, len(in.tagBits))
	}
	return t5.Sub(t0)
}

// concurrent is packet for a frame carrying several tags at once.
func (ln *linkLane) concurrent(in *linkInput, req int64, l *lane, s *sample) time.Duration {
	root := l.newID()
	t0 := time.Now()
	w, info := ln.mod.Modulate(radio.Packet{Payload: in.payload})
	ln.clean = append(ln.clean[:0], w.IQ...)
	t1 := time.Now()
	l.add(l.newID(), root, spanModulate, req, t0, t1)
	got, _ := ln.tag.Identify(w.IQ, w.Rate)
	t2 := time.Now()
	l.add(l.newID(), root, spanIdentify, req, t1, t2)
	jd := ln.joint[in.tags]
	assigns := ofdm.AssignConcurrent(in.tags)
	err := ofdm.ApplyConcurrentTags(w, info, assigns, in.tagsBits)
	t3 := time.Now()
	l.add(l.newID(), root, spanApplyTag, req, t2, t3)
	if err != nil {
		s.fail("packet %d: apply %d tags: %v", req, in.tags, err)
		return t3.Sub(t0)
	}
	channel.AWGN(w.IQ, in.snrDB, ln.rng)
	t4 := time.Now()
	l.add(l.newID(), root, spanChannel, req, t3, t4)
	cleanInfo := *info
	ref, err := ln.demod.Demodulate(radio.Waveform{IQ: ln.clean, Rate: w.Rate}, &cleanInfo)
	var decoded [][]byte
	if err == nil {
		jd.SetExcitation(ref)
		var streams [][]byte
		streams, err = jd.Demodulate(w, info)
		for k := 0; err == nil && k < len(streams); k++ {
			decoded = append(decoded, ofdm.JointTagBits(streams[k], ref, assigns[k], ofdmCfg.Modulation, info.NumSymbols()))
		}
	}
	t5 := time.Now()
	l.add(l.newID(), root, spanJointDecode, req, t4, t5)
	l.add(root, 0, spanPacket, req, t0, t5)

	ln.packets++
	if got == radio.Protocol80211n {
		ln.identified++
	}
	if err != nil {
		s.fail("packet %d: joint decode of %d tags: %v", req, in.tags, err)
		return t5.Sub(t0)
	}
	worst := 0
	for k, want := range in.tagsBits {
		n := min(len(want), len(decoded[k]))
		errs := radio.HammingDistance(decoded[k][:n], want[:n]) + len(want) - n
		ln.tagErrors += errs
		ln.tagBits += len(want)
		worst = max(worst, errs)
	}
	if got != radio.Protocol80211n || tooManyErrors(worst, len(in.tagsBits[0])) {
		s.fail("packet %d (%d tags): identified 802.11n as %v, up to %d of %d bits wrong per tag",
			req, in.tags, got, worst, len(in.tagsBits[0]))
	}
	return t5.Sub(t0)
}

func (ln *linkLane) resetTallies() {
	ln.identified, ln.packets, ln.tagErrors, ln.tagBits = 0, 0, 0, 0
	ln.decodeNS, ln.decodeN = [len(ln.decodeNS)]int64{}, [len(ln.decodeN)]int64{}
}

// tooManyErrors reports whether errs of total tag bits exceed
// linkMaxPacketBER.
func tooManyErrors(errs, total int) bool {
	return total > 0 && float64(errs)/float64(total) > linkMaxPacketBER
}

func (b *linkBench) measure(d time.Duration, rec *recorder) (*sample, error) {
	lanes := b.lanes
	samples := make([]sample, len(lanes))
	for _, ln := range lanes {
		ln.resetTallies()
	}
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for i := range lanes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ln, s, l := lanes[i], &samples[i], rec.lane()
			// Lanes walk the pool from staggered offsets so they do not
			// run the same protocol in lockstep.
			for k := i * len(b.inputs) / len(lanes); ; k++ {
				in := &b.inputs[k%len(b.inputs)]
				req := int64(k)*int64(len(lanes)) + int64(i)
				lat := ln.packet(in, req, l, s)
				now := time.Now()
				s.record(now.Sub(start), lat, 1)
				if !now.Before(deadline) {
					s.wall = now.Sub(start)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)

	out := &sample{elapsed: elapsed, window: time.Second, layer: map[string]float64{}}
	var identified, packets, tagErrors, tagBits int
	var decNS, decN [radio.Protocol80211n + 1]int64
	for i, ln := range lanes {
		out.merge(&samples[i])
		identified += ln.identified
		packets += ln.packets
		tagErrors += ln.tagErrors
		tagBits += ln.tagBits
		for p := range decNS {
			decNS[p] += ln.decodeNS[p]
			decN[p] += ln.decodeN[p]
		}
	}
	ber := float64(tagErrors) / float64(max(tagBits, 1))
	if ber > linkMaxTagBER {
		out.failRun("tag BER %.2g over %d bits exceeds %.0g", ber, tagBits, linkMaxTagBER)
	}
	if rec == nil {
		return out, nil
	}
	self := selfTimes(rec.spans())
	perPacket := func(name string) float64 {
		return float64(self[name]) / 1e3 / float64(max(packets, 1))
	}
	for _, name := range []string{spanModulate, spanIdentify, spanApplyTag, spanChannel, spanDecode, spanJointDecode} {
		out.layer[name+"_us"] = perPacket(name)
	}
	for p, key := range map[radio.Protocol]string{
		radio.Protocol80211b: "80211b", radio.Protocol80211n: "80211n",
		radio.ProtocolBLE: "ble", radio.ProtocolZigBee: "zigbee",
	} {
		if decN[p] > 0 {
			out.layer["link.decode_us."+key] = float64(decNS[p]) / 1e3 / float64(decN[p])
		}
	}
	out.layer["link.identify_accuracy"] = float64(identified) / float64(max(packets, 1))
	out.layer["link.tag_ber"] = ber
	out.layer["link.packets"] = float64(packets)
	return out, nil
}

// verify pushes the first inputs through a fresh lane: every tag bit
// that was sent must come back.
func (b *linkBench) verify() error {
	ln, err := newLinkLane(b.o.seed, len(b.lanes))
	if err != nil {
		return err
	}
	var s sample
	for i := 0; i < min(len(b.inputs), 32); i++ {
		ln.packet(&b.inputs[i], int64(i), nil, &s)
	}
	if s.failed > 0 || ln.tagErrors > 0 || ln.identified != ln.packets {
		return fmt.Errorf("link check: %d failed packets, %d tag bit errors in %d bits: %v",
			s.failed, ln.tagErrors, ln.tagBits, s.violations)
	}
	return nil
}

func (b *linkBench) close() {}
