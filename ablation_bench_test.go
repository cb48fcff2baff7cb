// Ablation benchmarks for the design choices DESIGN.md calls out:
// matching order, quantization depth, the extended window, the γ and κ
// spreading factors, the rectifier's clamp stage and RC constant, the
// OFDM middle-half majority vote, and the anti-alias filter. Each
// benchmark logs the ablated comparison on its first iteration.
package multiscatter_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"multiscatter"
	"multiscatter/internal/analog"
	"multiscatter/internal/channel"
	"multiscatter/internal/core"
	"multiscatter/internal/dsp"
	"multiscatter/internal/fpga"
	"multiscatter/internal/overlay"
	"multiscatter/internal/radio"
	"multiscatter/internal/tag"
)

// logOnce logs on the first benchmark iteration only.
func logOnce(b *testing.B, i int, format string, args ...any) {
	b.Helper()
	if i == 0 {
		b.Logf(format, args...)
	}
}

func BenchmarkAblationMatchingOrder(b *testing.B) {
	// The paper's resilience order (ZigBee → BLE → 11b → 11n) against
	// its reverse and an interleaved order, at the 10 Msps quantized
	// operating point.
	orders := []struct {
		name  string
		order []radio.Protocol
	}{
		{"paper (Z,B,11b,11n)", []radio.Protocol{radio.ProtocolZigBee, radio.ProtocolBLE, radio.Protocol80211b, radio.Protocol80211n}},
		{"reversed", []radio.Protocol{radio.Protocol80211n, radio.Protocol80211b, radio.ProtocolBLE, radio.ProtocolZigBee}},
		{"wifi-first", []radio.Protocol{radio.Protocol80211b, radio.Protocol80211n, radio.ProtocolZigBee, radio.ProtocolBLE}},
	}
	for i := 0; i < b.N; i++ {
		var sb strings.Builder
		for _, o := range orders {
			acc := orderedAccuracyWithOrder(b, o.order)
			fmt.Fprintf(&sb, "\n  %-22s %.3f", o.name, acc)
		}
		logOnce(b, i, "matching-order ablation (10 Msps, quantized):%s", sb.String())
	}
}

// orderedAccuracyWithOrder measures ordered-matching accuracy with a
// custom protocol test order.
func orderedAccuracyWithOrder(b *testing.B, order []radio.Protocol) float64 {
	b.Helper()
	id, err := tag.NewIdentifier(tag.IdentifierConfig{ADCRate: 10e6, Quantized: true})
	if err != nil {
		b.Fatal(err)
	}
	id.Matcher.Cfg.Order = order
	// Loose thresholds expose the order's effect: with tight thresholds a
	// wrong-but-earlier template rarely fires, with loose ones it does —
	// unless the resilient protocols are tested first, which is exactly
	// the paper's argument for ordered matching.
	id.Matcher.Cfg.Thresholds = map[radio.Protocol]float64{
		radio.ProtocolZigBee: 0.3, radio.ProtocolBLE: 0.3,
		radio.Protocol80211b: 0.3, radio.Protocol80211n: 0.3,
	}
	rng := rand.New(rand.NewSource(7))
	id.FrontEnd.ADC.Rand = rng
	id.FrontEnd.ADC.NoiseLSB = 2
	correct, total := 0, 0
	for _, p := range radio.Protocols {
		w, err := tag.PreambleWaveform(p)
		if err != nil {
			b.Fatal(err)
		}
		period := int(w.Rate / 10e6)
		for t := 0; t < 20; t++ {
			off := rng.Intn(period + 1)
			iq := make([]complex128, off, off+len(w.IQ))
			iq = append(iq, w.IQ...)
			channel.AWGN(iq, 9+rng.Float64()*12, rng)
			if got, _ := id.Identify(iq, w.Rate, true); got == p {
				correct++
			}
			total++
		}
	}
	return float64(correct) / float64(total)
}

func BenchmarkAblationQuantization(b *testing.B) {
	// Accuracy vs FPGA cost for 1-bit vs 9-bit correlation at 10 Msps —
	// the trade §2.3.1 makes.
	for i := 0; i < b.N; i++ {
		full, _, err := multiscatter.RunIdentification(multiscatter.IdentifyOptions{
			ADCRate: 10e6, Ordered: true, Trials: 20, Seed: 7,
		})
		if err != nil {
			b.Fatal(err)
		}
		quant, _, err := multiscatter.RunIdentification(multiscatter.IdentifyOptions{
			ADCRate: 10e6, Quantized: true, Ordered: true, Trials: 20, Seed: 7,
		})
		if err != nil {
			b.Fatal(err)
		}
		naive := fpga.NaiveMultiprotocol(120, 4)
		nano := fpga.QuantizedMultiprotocol(120, 4)
		logOnce(b, i, "quantization ablation: full-precision %.3f (%d DFFs, does not fit) vs ±1 %.3f (%d DFFs, fits) — %.0f×-cheaper logic for %.1f pp of accuracy",
			full.Average(), naive.DFFs, quant.Average(), nano.DFFs,
			float64(naive.DFFs)/float64(nano.DFFs),
			(full.Average()-quant.Average())*100)
	}
}

func BenchmarkAblationGammaSweep(b *testing.B) {
	// Tag BER and throughput vs γ per protocol at a fixed mid-range
	// decision SNR: the reliability/throughput knob of §2.4.2.
	const snr = 1.3
	for i := 0; i < b.N; i++ {
		var sb strings.Builder
		fmt.Fprintf(&sb, "\n%-10s", "γ")
		for g := 1; g <= 8; g++ {
			fmt.Fprintf(&sb, "%10d", g)
		}
		for _, p := range multiscatter.Protocols {
			fmt.Fprintf(&sb, "\n%-10v", p)
			for g := 1; g <= 8; g++ {
				fmt.Fprintf(&sb, "%10.2g", overlay.TagBERForGamma(p, g, snr))
			}
		}
		logOnce(b, i, "γ-sweep ablation (tag BER at decision SNR %.1f):%s", snr, sb.String())
	}
}

func BenchmarkAblationKappaContinuum(b *testing.B) {
	// The productive/tag split as κ sweeps from 2γ to the full payload
	// (Table 6's modes are three points on this curve).
	for i := 0; i < b.N; i++ {
		p := multiscatter.Protocol80211b
		g := overlay.Gammas[p]
		tr := overlay.DefaultTraffic(p)
		var sb strings.Builder
		fmt.Fprintf(&sb, "\n%8s %12s %12s", "κ", "productive", "tag (kbps)")
		for units := 2; units <= 256; units *= 2 {
			k := units * g
			if k > tr.PayloadSymbols {
				break
			}
			tp := overlay.CustomThroughput(p, g, k, tr, 0, 0)
			fmt.Fprintf(&sb, "\n%8d %12.1f %12.1f", k, tp.ProductiveKbps, tp.TagKbps)
		}
		logOnce(b, i, "κ-continuum ablation (802.11b, γ=%d):%s", g, sb.String())
	}
}

func BenchmarkAblationRectifier(b *testing.B) {
	// Clamp on/off and discharge-τ sweep: envelope fidelity on an
	// 802.11b-style envelope vs output voltage — the SNR/bandwidth trade
	// of §2.2.1.
	for i := 0; i < b.N; i++ {
		env := make([]float64, 4400)
		for j := range env {
			env[j] = 0.12
			if (j/22)%2 == 1 {
				env[j] = 0.03
			}
		}
		ref := dsp.RemoveDC(dsp.CloneFloat(env))
		var sb strings.Builder
		for _, tau := range []float64{20e-9, 45e-9, 200e-9, 1e-6, 4e-6} {
			r := analog.NewMultiscatterRectifier()
			r.DischargeTau = tau
			out := r.Detect(env, 22e6)
			fid := dsp.NormCorrFloat(dsp.RemoveDC(dsp.CloneFloat(out)), ref)
			peak, _ := dsp.MaxFloat(out)
			fmt.Fprintf(&sb, "\n  τ=%-8.3g fidelity %.3f  peak %.3f V", tau, fid, peak)
		}
		basic := analog.NewBasicRectifier()
		outB := basic.Detect(env, 22e6)
		peakB, _ := dsp.MaxFloat(outB)
		fmt.Fprintf(&sb, "\n  no clamp:   peak %.3f V (sub-threshold input mostly lost)", peakB)
		logOnce(b, i, "rectifier ablation (1 MHz square envelope, 0.12/0.03 V):%s", sb.String())
	}
}

func BenchmarkAblationMajorityVoting(b *testing.B) {
	// OFDM middle-half majority vote on/off: per-symbol decision error
	// at low SNR with 26 vs 1 subcarrier votes.
	for i := 0; i < b.N; i++ {
		var sb strings.Builder
		for _, snrDB := range []float64{-3, 0, 3} {
			snr := dsp.FromDB10(snrDB)
			single := dsp.BERBPSK(snr)
			voted := dsp.BERRepetition(dsp.BERBPSK(snr), 26)
			fmt.Fprintf(&sb, "\n  %4.0f dB: single subcarrier %.3g → middle-half vote %.3g", snrDB, single, voted)
		}
		logOnce(b, i, "majority-voting ablation (OFDM symbol decision):%s", sb.String())
	}
}

func BenchmarkAblationAntiAlias(b *testing.B) {
	// The converter's anti-alias filter at 2.5 Msps: without it,
	// aliased chip-rate envelope content decorrelates under start-phase
	// jitter and the extended window loses its advantage.
	for i := 0; i < b.N; i++ {
		with := antiAliasAccuracy(b, false)
		without := antiAliasAccuracy(b, true)
		logOnce(b, i, "anti-alias ablation (2.5 Msps, extended window): filter on %.3f vs off %.3f", with, without)
	}
}

func antiAliasAccuracy(b *testing.B, disable bool) float64 {
	b.Helper()
	fe := tag.NewFrontEnd(2.5e6)
	fe.NoAntiAlias = disable
	set, err := tag.BuildTemplateSet(fe, tag.ExtendedWindowUS)
	if err != nil {
		b.Fatal(err)
	}
	m := tag.NewMatcher(set, tag.MatchConfig{Quantized: true})
	rng := rand.New(rand.NewSource(13))
	fe.ADC.Rand = rng
	fe.ADC.NoiseLSB = 2
	correct, total := 0, 0
	for _, p := range radio.Protocols {
		w, err := tag.PreambleWaveform(p)
		if err != nil {
			b.Fatal(err)
		}
		period := int(w.Rate / 2.5e6)
		for t := 0; t < 15; t++ {
			off := rng.Intn(period + 1)
			iq := make([]complex128, off, off+len(w.IQ))
			iq = append(iq, w.IQ...)
			channel.AWGN(iq, 15, rng)
			got, _ := m.IdentifyOrdered(fe.Acquire(iq, w.Rate))
			if got == p {
				correct++
			}
			total++
		}
	}
	return float64(correct) / float64(total)
}

func BenchmarkAblationDutyCycledPower(b *testing.B) {
	// The EN duty-cycling argument of §2.3.2 quantified: average tag
	// power vs excitation packet rate, with and without the cited 236 nW
	// wake-up module gating the oscillator.
	for i := 0; i < b.N; i++ {
		profile := tag.DefaultPowerProfile(2.5)
		wake := analog.NewWakeUpReceiver()
		var sb strings.Builder
		fmt.Fprintf(&sb, "\n%12s %14s %14s", "pkt/s", "EN-gated (mW)", "+wake-up (mW)")
		const detect = 60e-6
		const modulate = 400e-6
		for _, rate := range []float64{0, 20, 70, 500, 2000} {
			gated := profile.DutyCycledPowerMW(rate,
				time.Duration(detect*1e9), time.Duration(modulate*1e9))
			duty := rate * (detect + modulate)
			awake := profile.DetectMW*detect/(detect+modulate) +
				profile.ModulateMW*modulate/(detect+modulate)
			withWake := wake.EffectiveDutyPower(duty, awake)
			fmt.Fprintf(&sb, "\n%12.0f %14.3f %14.4f", rate, gated, withWake)
		}
		fmt.Fprintf(&sb, "\n  (peak Table 3 budget: %.1f mW; oscillator floor %.1f mW; wake-up floor %.4f mW)",
			fpga.NewPowerBreakdown().TotalMW(), profile.SleepMW, wake.PowerMW())
		logOnce(b, i, "duty-cycled power ablation (2.5 Msps point):%s", sb.String())
	}
}

func BenchmarkAblationCFOSearch(b *testing.B) {
	// The receiver's brute-force center-frequency alignment (§2.4.2
	// footnote 7): decode success with and without the search under a
	// coarse tag oscillator (150 kHz ≈ 60 ppm at 2.4 GHz).
	for i := 0; i < b.N; i++ {
		const cfo = 150e3
		run := func(search float64) bool {
			codec, _ := multiscatter.NewCodec(multiscatter.Protocol80211b)
			plan, err := multiscatter.NewPlan(multiscatter.Protocol80211b, multiscatter.Mode1, []byte{1, 0, 1, 1})
			if err != nil {
				b.Fatal(err)
			}
			carrier, err := codec.Build(plan)
			if err != nil {
				b.Fatal(err)
			}
			tagBits := []byte{1, 1, 0, 0}
			codec.ApplyTag(carrier, tagBits)
			core.Impair(carrier, core.Impairments{DelaySamples: 97, CFOHz: cfo, SNRdB: 20, Seed: 6})
			rx := core.NewReceiver(multiscatter.Protocol80211b)
			rx.SearchHz = search
			rx.StepHz = 10e3
			if _, _, err := rx.Recover(carrier); err != nil {
				return false
			}
			res, err := codec.Decode(carrier)
			if err != nil {
				return false
			}
			pe, te := res.BitErrors(plan, tagBits)
			return pe == 0 && te == 0
		}
		with := run(200e3)
		without := run(0)
		logOnce(b, i, "CFO-search ablation (150 kHz tag oscillator offset): with search decode=%v, without decode=%v", with, without)
	}
}

func BenchmarkAblationGammaSelection(b *testing.B) {
	// The paper picked Table 6's γ empirically ("best throughput while
	// maintaining BERs less than 10⁻¹"). ChooseGamma makes that policy
	// explicit: this bench sweeps the decision SNR and reports the chosen
	// γ per protocol, next to the paper's values (4/2/4/2).
	for i := 0; i < b.N; i++ {
		var sb strings.Builder
		fmt.Fprintf(&sb, "\n%-10s", "SNR (dB)")
		for _, p := range multiscatter.Protocols {
			fmt.Fprintf(&sb, "%10v", p)
		}
		for _, snrDB := range []float64{-9, -6, -3, 0, 6, 12} {
			snr := dsp.FromDB10(snrDB)
			fmt.Fprintf(&sb, "\n%-10.0f", snrDB)
			for _, p := range multiscatter.Protocols {
				g, ok := multiscatter.ChooseGamma(p, snr, 0.1, 16)
				mark := ""
				if !ok {
					mark = "!"
				}
				fmt.Fprintf(&sb, "%9d%1s", g, mark)
			}
		}
		fmt.Fprintf(&sb, "\n  (paper's Table 6: γ = 2 ZigBee, 4 BLE, 4 802.11b, 2 802.11n)")
		logOnce(b, i, "γ-selection ablation (target BER 0.1):%s", sb.String())
	}
}
