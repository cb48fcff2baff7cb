package report

import (
	"fmt"
	"strings"
	"time"

	"multiscatter/internal/analog"
	"multiscatter/internal/baseline"
	"multiscatter/internal/channel"
	"multiscatter/internal/core"
	"multiscatter/internal/dsp"
	"multiscatter/internal/energy"
	"multiscatter/internal/fleet"
	"multiscatter/internal/fpga"
	"multiscatter/internal/obs"
	"multiscatter/internal/overlay"
	"multiscatter/internal/phy/dsss"
	"multiscatter/internal/radio"
	"multiscatter/internal/serve"
	"multiscatter/internal/stats"
)

// Experiments is the registry, in report order: {ID, Title, Paper, Run}.
// The full report, msbench -experiment, the BENCH_<date>.json metrics
// and BenchmarkExperiments all iterate this one list.
var Experiments = []Experiment{
	{"table1", "System comparison (Table 1)", "only multiscatter satisfies all three", table1},
	{"table2", "FPGA resources for 4-protocol matching (Table 2)", "naive 480/476/133,364; nano 2,860 DFFs", table2},
	{"table3", "COTS prototype power (Table 3)", "total 279.5 mW at 20 Msps", table3},
	{"table4", "Tag-data exchange times (Table 4)", "360/360/12.6/3.6 pkts; 0.6/0.6/17.2/60.1 s indoor", table4},
	{"table5", "Identification power and LUTs (Table 5)", "564 → 12 → 2 mW (282×)", table5},
	{"table6", "Overlay modes (Table 6)", "κ = 2γ / 4γ / γ·n", table6},
	{"fig4", "Rectifier comparison (Figure 4)", "clamp raises output; WISP distorts 802.11b", fig4},
	{"fig5", "Identification at 20 Msps, full precision (Figure 5)", "≥99.3% all, 99.7% average", fig5},
	{"fig7", "Blind vs ordered matching at 10 Msps with quantization (Figure 7)", "0.906 vs 0.976", fig7},
	{"fig8", "Identification at low sampling rates (Figure 8)", "2.5 Msps: 0.485 → 0.93 extended; 1 Msps ≈ 0.5", fig8},
	{"fig9", "Baselines' dependence on the original channel (Figure 9)", "BER 0.2% → 59%; offsets up to 8 symbols", fig9},
	{"fig12", "Overlay trade-offs (Figure 12)", "mode-1 BLE aggregate 278.4 kbps (141.6 + 136.8)", fig12},
	{"fig13", "Ranges in line of sight (Figure 13)", "max ranges 28 (802.11b/n) / 22 (ZigBee) / 20 (BLE) m", rangeFig(channel.NewLoS)},
	{"fig14", "Ranges without line of sight (Figure 14)", "max ranges 22 (802.11b/n) / 18 (ZigBee) / 16 (BLE) m", rangeFig(channel.NewNLoS)},
	{"fig15", "Occluded original channel (Figure 15)", "multiscatter 136/121 vs Hitchhike 94, FreeRider 33", fig15},
	{"fig16", "Collided excitations (Figure 16)", "BLE 278 → 92; others ~unchanged", fig16},
	{"fig17", "Reference-symbol modulations (Figure 17)", "tag BER stable, ≤0.6% for 802.11b", fig17},
	{"fig18", "Excitation diversity (Figure 18)", "multiscatter busy 100%; picks 802.11n for 6.3 kbps", fig18},
	{"downlink", "Downlink range (§2.2.1)", "0.9 m at 30 dBm / 0.15 V threshold", downlink},
	{"serve", "Fleet service (msserve shared-pool workload)", "", serveJobs},
}

func table1(s *Section) {
	yesNo := map[bool]string{true: "yes", false: "no"}
	s.printf("| system | excitation diversity | productive carrier | single commodity receiver |\n|---|---|---|---|\n")
	for _, name := range baseline.Table1Order {
		c := baseline.Table1[name]
		s.printf("| %s | %s | %s | %s |\n",
			name, yesNo[c.ExcitationDiversity], yesNo[c.ProductiveCarrier], yesNo[c.SingleCommodityReceiver])
	}
	s.printf("\nDouble-decker (arXiv 2408.16280) postdates the paper's table; it joins the single-commodity-receiver column via superposition decoding (see docs/CHANNELS.md).\n")
}

func table2(s *Section) {
	one := fpga.NaiveCorrelator(120)
	naive := fpga.NaiveMultiprotocol(120, 4)
	nano := fpga.QuantizedMultiprotocol(120, 4)
	s.printf("| implementation | multipliers | adders | D-flip-flops |\n|---|---|---|---|\n")
	for _, p := range radio.Protocols {
		s.printf("| %v (naive) | %d | %d | %d |\n", p, one.Multipliers, one.Adders, one.DFFs)
	}
	s.printf("| total (naive) | %d | %d | %d |\n", naive.Multipliers, naive.Adders, naive.DFFs)
	s.printf("| nano FPGA impl. | %d | %d | %d |\n", nano.Multipliers, nano.Adders, nano.DFFs)
	s.printf("\nThe nano implementation fits the AGLN250: %v.\n", nano.FitsAGLN250())
	s.metric("naive_multipliers", float64(naive.Multipliers))
	s.metric("naive_adders", float64(naive.Adders))
	s.metric("naive_dffs", float64(naive.DFFs))
	s.metric("nano_dffs", float64(nano.DFFs))
}

func table3(s *Section) {
	p := fpga.NewPowerBreakdown()
	s.printf("| component | power (mW) |\n|---|---|\n"+
		"| packet detection FPGA | %.1f |\n| ADC (20 Msps) | %.1f |\n| modulation FPGA | %.1f |\n"+
		"| RF switch | %.1f |\n| oscillator (20 MHz) | %.1f |\n| **total** | **%.1f** |\n",
		p.PacketDetectFPGAmW, p.ADCmW, p.ModulationFPGAmW, p.RFSwitchMW, p.OscillatorMW, p.TotalMW())
	low := p.AtADCRate(2.5)
	s.printf("\nAt 2.5 Msps the ADC drops to %.1f mW, total %.1f mW.\n", low.ADCmW, low.TotalMW())
	s.metric("total_mw", p.TotalMW())
}

func table4(s *Section) {
	s.printf("| protocol | pkts/round | indoor (s) | outdoor (s) |\n|---|---|---|---|\n")
	for _, row := range energy.ExchangeTable(fpga.NewPowerBreakdown().TotalMW() / 1e3) {
		s.printf("| %v | %.1f | %.3g | %.3g |\n", row.Protocol, row.PacketsPerRound, row.IndoorSeconds, row.OutdoorSeconds)
		s.metric(fmt.Sprintf("indoor_s_%v", row.Protocol), row.IndoorSeconds)
		s.metric(fmt.Sprintf("outdoor_s_%v", row.Protocol), row.OutdoorSeconds)
	}
	panel := energy.NewMP337()
	s.printf("\nA round takes %.1f mJ; harvesting it takes %.3g s indoor and %.3g s outdoor.\n",
		energy.RoundEnergyJ()*1e3, panel.HarvestSeconds(energy.IndoorLux), panel.HarvestSeconds(energy.OutdoorLux))
}

func table5(s *Section) {
	s.printf("| setup | power (mW) | LUTs | saving |\n|---|---|---|---|\n")
	for _, st := range []fpga.IdentSetup{
		{RateMsps: 20, Quantized: false},
		{RateMsps: 20, Quantized: true},
		{RateMsps: 2.5, Quantized: true},
	} {
		c := fpga.IdentCostOf(st)
		s.printf("| %.3g MS/s quant=%v | %.3g | %d | %.0f× |\n",
			st.RateMsps, st.Quantized, c.PowerMW, c.LUTs, fpga.PowerSavingFactor(st))
		s.metric(fmt.Sprintf("power_mw_%.3gmsps_quant=%v", st.RateMsps, st.Quantized), c.PowerMW)
	}
}

func table6(s *Section) {
	s.printf("| protocol | γ | κ mode 1 | κ mode 2 | κ mode 3 |\n|---|---|---|---|---|\n")
	for _, p := range radio.Protocols {
		g := overlay.Gammas[p]
		s.printf("| %v | %d | %d | %d | %d·n |\n",
			p, g, overlay.Kappa(p, overlay.Mode1, 0), overlay.Kappa(p, overlay.Mode2, 0), g)
	}
}

func fig4(s *Section) {
	const rate = 22e6
	env := make([]float64, 2200)
	for i := range env {
		if (i/110)%2 == 0 {
			env[i] = 0.3
		}
	}
	basic := analog.NewBasicRectifier().Detect(env, rate)
	clamped := analog.NewMultiscatterRectifier().Detect(env, rate)
	s.printf("Mean output on a 0.3 V square envelope: basic %.3f V, clamped %.3f V.\n\n",
		dsp.MeanFloat(basic), dsp.MeanFloat(clamped))

	mod := dsss.NewModulator(dsss.Config{Rate: dsss.Rate1Mbps})
	w, _ := mod.Modulate(radio.Packet{Payload: []byte{0xA5, 0x5A, 0x3C}})
	sig := dsp.Envelope(w.IQ)
	for i := range sig {
		if (i/22)%2 == 1 {
			sig[i] *= 0.2
		}
		sig[i] *= 0.4
	}
	ours := analog.NewMultiscatterRectifier().Detect(sig, w.Rate)
	wisp := analog.NewWISPRectifier().Detect(sig, w.Rate)
	ref := dsp.RemoveDC(dsp.CloneFloat(sig))
	s.printf("802.11b envelope fidelity (correlation with the input): ours %.3f, WISP %.3f.\n",
		dsp.NormCorrFloat(dsp.RemoveDC(dsp.CloneFloat(ours)), ref),
		dsp.NormCorrFloat(dsp.RemoveDC(dsp.CloneFloat(wisp)), ref))
}

// identPoint is one identification operating point of Figures 5, 7
// and 8. Its average accuracy is recorded as key in the shared
// "identification" metric group.
type identPoint struct {
	label, key, paper   string
	rate                float64
	quant, ext, ordered bool
}

// identify writes one table row per operating point and returns the
// last point's confusion matrix, or nil when a point fails.
func identify(s *Section, points ...identPoint) *stats.Confusion {
	s.printf("| operating point | measured | paper |\n|---|---|---|\n")
	var c *stats.Confusion
	for _, pt := range points {
		var err error
		c, _, err = core.RunIdentification(core.IdentifyOptions{
			ADCRate: pt.rate, Quantized: pt.quant, Extended: pt.ext, Ordered: pt.ordered,
			Trials: s.o.Trials, Seed: s.o.Seed,
		})
		if err != nil {
			s.fail(err)
			return nil
		}
		s.printf("| %s | %.3f | %s |\n", pt.label, c.Average(), pt.paper)
		s.record("identification", pt.key, c.Average())
	}
	return c
}

func fig5(s *Section) {
	if c := identify(s,
		identPoint{"20 Msps, full precision, ordered", "accuracy_20msps_full_ordered", "0.997", 20e6, false, false, true}); c != nil {
		s.printf("\n%s", c)
	}
}

func fig7(s *Section) {
	identify(s,
		identPoint{"10 Msps, ±1, blind", "accuracy_10msps_quant_blind", "0.906", 10e6, true, false, false},
		identPoint{"10 Msps, ±1, ordered", "accuracy_10msps_quant_ordered", "0.976", 10e6, true, false, true})
}

func fig8(s *Section) {
	identify(s,
		identPoint{"2.5 Msps, ±1, 8 µs window", "accuracy_2.5msps_quant_ordered", "0.485", 2.5e6, true, false, true},
		identPoint{"2.5 Msps, ±1, 40 µs window", "accuracy_2.5msps_quant_extended", "0.93", 2.5e6, true, true, true},
		identPoint{"1 Msps, ±1, 40 µs window", "accuracy_1msps_quant_extended", "≈0.5", 1e6, true, true, true})
}

func fig9(s *Section) {
	bers, offsets := core.RunBaselineFailure()
	s.printf("| system | wall | tag BER |\n|---|---|---|\n")
	for _, b := range bers {
		s.printf("| %s | %v | %.4f |\n", b.System, b.Wall, b.TagBER)
		s.metric(fmt.Sprintf("tag_ber_%s_%v", b.System, b.Wall), b.TagBER)
	}
	s.printf("\nHitchhike's modulation offset at 30 m reaches %.0f symbols.\n", offsets.MaxY())
	s.metric("max_offset_symbols", offsets.MaxY())
}

func fig12(s *Section) {
	s.printf("| protocol | mode | productive (kbps) | tag (kbps) | aggregate (kbps) |\n|---|---|---|---|---|\n")
	for _, row := range core.RunTradeoffs() {
		s.printf("| %v | %v | %.1f | %.1f | %.1f |\n",
			row.Protocol, row.Mode, row.ProductiveKbps, row.TagKbps, row.Aggregate())
		s.metric(fmt.Sprintf("aggregate_kbps_%v_%v", row.Protocol, row.Mode), row.Aggregate())
	}
}

// rangeFig builds the run of a range figure (Figures 13 and 14): each
// protocol's maximum range and its aggregate throughput vs distance.
func rangeFig(newChannel func() *channel.Model) func(*Section) {
	return func(s *Section) {
		ch := newChannel()
		s.printf("| protocol | max range (m) |\n|---|---|\n")
		series := make([]*stats.Series, 0, len(radio.Protocols))
		for _, p := range radio.Protocols {
			maxM := core.NewLink(p, ch).MaxRange(0.5, 40)
			s.printf("| %v | %.1f |\n", p, maxM)
			s.metric(fmt.Sprintf("max_range_m_%v", p), maxM)
			sr := &stats.Series{Name: p.String(), Unit: "kbps"}
			for _, pt := range core.RangeSweep(p, ch, 30, 2) {
				sr.Add(pt.DistanceM, pt.AggregateKbps)
			}
			series = append(series, sr)
		}
		s.printf("\nAggregate throughput vs distance:\n\n%s", stats.Table("dist (m)", series...))
	}
}

func fig15(s *Section) {
	s.printf("| system | tag throughput behind drywall (kbps) |\n|---|---|\n")
	for _, row := range core.RunOcclusion() {
		s.printf("| %s | %.1f |\n", row.System, row.TagKbps)
		s.metric(fmt.Sprintf("tag_kbps_%s", row.System), row.TagKbps)
	}
	s.printf("\nDouble-decker decodes the superposed stream at ONE commodity receiver (arXiv 2408.16280), paying a γ·spread capacity budget instead of a second radio.\n\n")

	s.printf("Occlusion sweep — Double-decker has no original receiver to occlude, so its curve is flat while the dual-receiver baselines decay:\n\n")
	s.printf("| wall | Double-decker (kbps) | Hitchhike (kbps) | FreeRider (kbps) |\n|---|---|---|---|\n")
	for _, p := range core.RunOcclusionSweep() {
		s.printf("| %v | %.1f | %.1f | %.1f |\n", p.Wall, p.DoubleDeckerKbps, p.HitchhikeKbps, p.FreeRiderKbps)
		s.metric(fmt.Sprintf("doubledecker_tag_kbps_%v", p.Wall), p.DoubleDeckerKbps)
	}
	dd := baseline.DoubleDeckerConfig{}
	s.metric("doubledecker_tag_kbps", baseline.DoubleDeckerThroughputKbps(dd, overlay.DefaultTraffic(radio.Protocol80211b), radio.Protocol80211b))
	s.metric("doubledecker_sinr_db", baseline.DoubleDeckerSINRdB(dd))
	s.metric("doubledecker_tag_ber", baseline.DoubleDeckerTagBER(dd, radio.Protocol80211b))

	ber, err := core.RunDoubleDeckerDecode(3, s.o.Seed)
	if err != nil {
		s.fail(err)
		return
	}
	s.printf("\nWaveform-level single-receiver decode (3 real DSSS frames, pilot-estimated H_d cancellation, coherent H_b slicing): measured tag BER %.4f.\n", ber)
	s.metric("doubledecker_waveform_ber", ber)
}

func fig16(s *Section) {
	timeDom, freqDom := core.RunCollisions(s.o.Seed)
	collisions(s, "Time-domain collision (802.11n + BLE)", "time", timeDom)
	collisions(s, "Frequency-domain collision (802.11n + ZigBee)", "freq", freqDom)

	pts, err := fleet.ConcurrencySweep(4, 2*time.Second, s.o.Seed)
	if err != nil {
		s.fail(err)
		return
	}
	s.printf("Concurrent multi-tag OFDM (joint subcarrier-group decoding vs capture):\n\n")
	s.printf("| tags | joint aggregate (kbps) | capture baseline (kbps) | Jain |\n|---|---|---|---|\n")
	for _, p := range pts {
		s.printf("| %d | %.2f | %.2f | %.3f |\n", p.N, p.AggregateKbps, p.BaselineKbps, p.Jain)
		s.metric(fmt.Sprintf("concurrent_aggregate_kbps_n%d", p.N), p.AggregateKbps)
		s.metric(fmt.Sprintf("concurrent_baseline_kbps_n%d", p.N), p.BaselineKbps)
	}
	s.metric("concurrent_jain_n4", pts[len(pts)-1].Jain)

	// RunJointOFDM returns the SNR points of each k together, in snrs order.
	snrs := []float64{0, 5, 15}
	joint, err := core.RunJointOFDM(snrs, 3, s.o.Seed)
	if err != nil {
		s.fail(err)
		return
	}
	s.printf("\nWaveform-level joint decode (per-tag BER, BPSK):\n\n| k |")
	for _, snr := range snrs {
		s.printf(" %g dB |", snr)
	}
	s.printf(" bits/frame/tag | aggregate bits/frame |\n|---|%s\n", strings.Repeat("---|", len(snrs)+2))
	for i := 0; i+len(snrs) <= len(joint); i += len(snrs) {
		row := joint[i : i+len(snrs)]
		s.printf("| %d |", row[0].K)
		for _, p := range row {
			s.printf(" %.4f |", p.TagBER)
			s.metric(fmt.Sprintf("joint_tag_ber_k%d_snr%gdB", p.K, p.SNRdB), p.TagBER)
		}
		s.printf(" %d | %d |\n", row[0].TagBitsPerFrame, row[0].AggregateBitsPerFrame)
	}
}

// collisions writes one Figure 16 collision table and records each
// protocol's collided throughput as <kind>_collided_kbps_<protocol>.
func collisions(s *Section, caption, kind string, rows []core.CollisionResult) {
	s.printf("%s:\n\n| protocol | alone (kbps) | collided (kbps) |\n|---|---|---|\n", caption)
	for _, r := range rows {
		s.printf("| %v | %.1f | %.1f |\n", r.Protocol, r.AloneKbps, r.CollidedKbps)
		s.metric(fmt.Sprintf("%s_collided_kbps_%v", kind, r.Protocol), r.CollidedKbps)
	}
	s.printf("\n")
}

func fig17(s *Section) {
	rows, err := core.RunRefModulation(-5, 40, s.o.Seed)
	if err != nil {
		s.fail(err)
		return
	}
	s.printf("| reference modulation | tag BER |\n|---|---|\n")
	for _, r := range rows {
		s.printf("| %s | %.4f |\n", r.Label, r.TagBER)
	}
}

func fig18(s *Section) {
	d := core.RunDiversity()
	s.printf("Figure 18a: multiscatter %.1f kbps (busy %.0f%%) vs 802.11n-only %.1f kbps (busy %.0f%%).\n\n",
		d.MultiKbps, d.MultiBusyFrac*100, d.SingleKbps, d.SingleBusyFrac*100)
	s.metric("multi_kbps", d.MultiKbps)
	s.metric("single_kbps", d.SingleKbps)
	pick := core.RunCarrierPick()
	s.printf("Figure 18b: picked %v at %.1f kbps (target %.1f kbps met: %v); 802.11b-only %.1f kbps (met: %v).\n",
		pick.Picked, pick.PickedKbps, core.BraceletGoodputKbps, pick.MeetsTarget,
		pick.SingleKbps, pick.SingleMeets)
	s.metric("picked_kbps", pick.PickedKbps)
}

func downlink(s *Section) {
	clamped := core.DownlinkRange(analog.NewMultiscatterRectifier(), channel.NewLoS())
	basic := core.DownlinkRange(analog.NewBasicRectifier(), channel.NewLoS())
	s.printf("Clamped rectifier: %.2f m; basic rectifier: %.2f m.\n", clamped, basic)
}

// serveJobs runs the fixed fleet-service workload (the same job set
// BenchmarkServeConcurrentJobs submits) through a private serve.Manager
// and records only sim-domain numbers: per-job results are
// byte-identical to standalone runs, so every metric here is
// deterministic and the committed-baseline diff stays empty. Wall-clock
// service throughput lives in the Go benchmark and msload output.
func serveJobs(s *Section) {
	jobs := serve.BenchJobs(8)
	m := serve.NewManager(serve.Config{Obs: obs.NewRegistry()})
	defer m.Close()
	submitted := make([]*serve.Job, 0, len(jobs))
	for _, jc := range jobs {
		j, err := m.Submit(jc)
		if err != nil {
			s.fail(err)
			return
		}
		submitted = append(submitted, j)
	}
	s.printf("| job | scenario | seed | packets | fleet (kbps) |\n|---|---|---|---|---|\n")
	var sumKbps float64
	var packets int
	for i, j := range submitted {
		<-j.Done()
		res := j.Result()
		if res == nil {
			s.fail(fmt.Errorf("serve job %s: %s", j.ID, j.Err()))
			return
		}
		s.printf("| %d | %s | %d | %d | %.2f |\n",
			i+1, j.Config.Scenario, j.Config.Seed, res.Events, res.FleetTagKbps)
		sumKbps += res.FleetTagKbps
		packets += res.Events
	}
	s.printf("\n%d concurrent jobs on one shared pool; results byte-identical to standalone runs (see docs/SERVICE.md).\n",
		len(jobs))
	s.metric("jobs_done", float64(len(jobs)))
	s.metric("packets_total", float64(packets))
	s.metric("sum_fleet_tag_kbps", sumKbps)
}
