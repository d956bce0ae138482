// Package eval is the experiment harness: one runner per table/figure of
// the paper's evaluation, each producing both structured data and the
// rendered rows/series the paper reports. The cmd/pimassembler binary and
// the benchmark suite are thin wrappers over this package.
package eval

import (
	"bytes"
	"fmt"
	"io"
	"strings"

	"pimassembler/internal/assembly"
	"pimassembler/internal/circuit"
	"pimassembler/internal/genome"
	"pimassembler/internal/parallel"
	"pimassembler/internal/perfmodel"
	"pimassembler/internal/platforms"
)

// Seed is the deterministic seed every experiment uses.
const Seed = 0xD0C2020

// Fig9Platforms lists the five genome-pipeline platforms in the paper's
// bar-group order ("GPU, PIM-Assembler, Ambit, DRISA-3T1C, DRISA-1T1C").
func Fig9Platforms() []platforms.Spec {
	return []platforms.Spec{
		platforms.GPU(),
		platforms.PIMAssembler(),
		platforms.Ambit(),
		platforms.DRISA3T1C(),
		platforms.DRISA1T1C(),
	}
}

// PaperCounts returns the full-scale operation profile at k.
func PaperCounts(k int) assembly.OpCounts {
	return assembly.PaperOpCounts(genome.PaperChr14(), k)
}

// --- E1: Fig. 3a — transient simulation of in-memory XNOR2 ---

// Fig3a runs the four-input-pattern transient and returns the waveforms.
func Fig3a() map[string][]circuit.Sample {
	cfg := circuit.DefaultTransientConfig()
	out := make(map[string][]circuit.Sample, 4)
	for p := 0; p < 4; p++ {
		di, dj := p&1 != 0, p&2 != 0
		key := fmt.Sprintf("DiDj=%d%d", b2i(di), b2i(dj))
		out[key] = circuit.SimulateXNOR2(cfg, di, dj)
	}
	return out
}

// RenderFig3a writes a summary plus a CSV-style waveform dump (decimated).
func RenderFig3a(w io.Writer) {
	fmt.Fprintln(w, "Fig. 3a — transient simulation of in-memory XNOR2 (two-row activation)")
	waves := Fig3a()
	for _, key := range []string{"DiDj=00", "DiDj=10", "DiDj=01", "DiDj=11"} {
		s := waves[key]
		final := circuit.FinalCellVoltage(s)
		verdict := "charged to Vdd (XNOR2=1)"
		if final < circuit.Vdd/2 {
			verdict = "discharged to GND (XNOR2=0)"
		}
		fmt.Fprintf(w, "  %s: final cell %.3f V — %s\n", key, final, verdict)
	}
	fmt.Fprintln(w, "\n  t_ns,VBL_00,VCell_00,VBL_10,VCell_10,VBL_01,VCell_01,VBL_11,VCell_11")
	ref := waves["DiDj=00"]
	step := len(ref) / 40
	if step == 0 {
		step = 1
	}
	for i := 0; i < len(ref); i += step {
		fmt.Fprintf(w, "  %.2f", ref[i].TimeNS)
		for _, key := range []string{"DiDj=00", "DiDj=10", "DiDj=01", "DiDj=11"} {
			s := waves[key][i]
			fmt.Fprintf(w, ",%.3f,%.3f", s.VBL, s.VCell)
		}
		fmt.Fprintln(w)
	}
}

// --- E2: Fig. 3b — raw throughput ---

// RenderFig3b writes the throughput matrix for both ops, all platforms, all
// three vector lengths, plus the headline ratios.
func RenderFig3b(w io.Writer) {
	fmt.Fprintln(w, "Fig. 3b — bulk bit-wise throughput (Gbit/s), 8 banks of 1024x256 sub-arrays")
	fmt.Fprintf(w, "  %-5s %-4s %12s %12s %12s\n", "plat", "op", "2^27 bits", "2^28 bits", "2^29 bits")
	rows := platforms.Fig3b()
	for _, r := range rows {
		fmt.Fprintf(w, "  %-5s %-4s %12.1f %12.1f %12.1f\n",
			r.Platform, r.Op, r.BitsPerS[0]/1e9, r.BitsPerS[1]/1e9, r.BitsPerS[2]/1e9)
	}
	fmt.Fprintln(w)
	for _, line := range ThroughputRatios() {
		fmt.Fprintln(w, "  "+line)
	}
}

// ThroughputRatios derives the paper's §I/§II-B headline numbers from the
// Fig. 3b data: P-A vs CPU (both ops averaged) and vs each PIM baseline.
func ThroughputRatios() []string {
	mean := func(name string, op platforms.BulkOp) float64 {
		for _, r := range platforms.Fig3b() {
			if r.Platform == name && r.Op == op {
				return r.MeanThroughput()
			}
		}
		panic("eval: platform missing from Fig3b")
	}
	paX := mean("P-A", platforms.OpXNOR)
	paA := mean("P-A", platforms.OpAdd)
	cpuRatio := (paX/mean("CPU", platforms.OpXNOR) + paA/mean("CPU", platforms.OpAdd)) / 2
	out := []string{
		fmt.Sprintf("P-A vs CPU (both ops avg): %.1fx (paper: 8.4x)", cpuRatio),
	}
	for _, base := range []struct {
		name  string
		paper float64
	}{{"Ambit", 2.3}, {"D1", 1.9}, {"D3", 3.7}} {
		r := paX / mean(base.name, platforms.OpXNOR)
		out = append(out, fmt.Sprintf("P-A vs %s (XNOR): %.1fx (paper: %.1fx)", base.name, r, base.paper))
	}
	return out
}

// --- E3: Table I — process variation ---

// TableI runs the Monte-Carlo sweep with the paper's 10 000 trials.
func TableI() []circuit.VariationResult {
	return circuit.DefaultVariationModel().TableI(Seed)
}

// RenderTableI writes the table next to the paper's values.
func RenderTableI(w io.Writer) {
	fmt.Fprintln(w, "Table I — process-variation test error (%), 10 000 Monte-Carlo trials")
	fmt.Fprintf(w, "  %-10s %12s %12s %14s %14s\n", "variation", "TRA", "2-row act.", "paper TRA", "paper 2-row")
	paperTRA := []float64{0.00, 0.18, 5.5, 17.1, 28.4}
	paperTwo := []float64{0.00, 0.00, 1.6, 11.2, 18.1}
	for i, r := range TableI() {
		fmt.Fprintf(w, "  ±%-9.0f %12.2f %12.2f %14.2f %14.2f\n",
			r.Variation*100, r.TRAErrPct, r.TwoRowErrPct, paperTRA[i], paperTwo[i])
	}
}

// --- E4: area overhead ---

// RenderArea writes the §II-B area accounting.
func RenderArea(w io.Writer) {
	rep := perfmodel.DefaultAreaModel().Overhead(platforms.PIMGeometry())
	fmt.Fprintln(w, "Area overhead (paper §II-B: ~5% of DRAM chip area)")
	fmt.Fprintf(w, "  %s\n", rep)
}

// --- E5/E6: Fig. 9 — execution time and power ---

// Fig9 prices the chr14 workload on the five platforms for every k.
func Fig9() map[int][]perfmodel.StageCost {
	out := make(map[int][]perfmodel.StageCost)
	for _, k := range genome.PaperChr14().KmerRanges {
		out[k] = perfmodel.CostsForK(Fig9Platforms(), PaperCounts(k))
	}
	return out
}

// RenderFig9 writes the stacked execution-time breakdown (Fig. 9a) and the
// power bars (Fig. 9b) plus the headline ratios.
func RenderFig9(w io.Writer) {
	fig9 := Fig9()
	fmt.Fprintln(w, "Fig. 9a — execution time breakdown (s): hashmap / deBruijn / traverse")
	for _, k := range genome.PaperChr14().KmerRanges {
		fmt.Fprintf(w, "  k=%d\n", k)
		for _, c := range fig9[k] {
			fmt.Fprintf(w, "    %-6s %7.1f / %6.1f / %6.1f  = %7.1f s\n",
				c.Platform, c.HashmapS, c.DeBruijnS, c.TraverseS, c.TotalS())
		}
	}
	fmt.Fprintln(w, "\nFig. 9b — power (W)")
	for _, k := range genome.PaperChr14().KmerRanges {
		fmt.Fprintf(w, "  k=%d:", k)
		for _, c := range fig9[k] {
			fmt.Fprintf(w, "  %s=%.1f", c.Platform, c.PowerW)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
	for _, line := range AssemblyRatios() {
		fmt.Fprintln(w, "  "+line)
	}
}

// AssemblyRatios derives the paper's genome-pipeline headline numbers.
func AssemblyRatios() []string {
	fig9 := Fig9()
	ks := genome.PaperChr14().KmerRanges
	avgTotal := map[string]float64{}
	avgPower := map[string]float64{}
	var hm16GPU, hm16PA, hm32GPU, hm32PA float64
	for _, k := range ks {
		for _, c := range fig9[k] {
			avgTotal[c.Platform] += c.TotalS() / float64(len(ks))
			avgPower[c.Platform] += c.PowerW / float64(len(ks))
			if k == 16 && c.Platform == "GPU" {
				hm16GPU = c.HashmapS
			}
			if k == 16 && c.Platform == "P-A" {
				hm16PA = c.HashmapS
			}
			if k == 32 && c.Platform == "GPU" {
				hm32GPU = c.HashmapS
			}
			if k == 32 && c.Platform == "P-A" {
				hm32PA = c.HashmapS
			}
		}
	}
	pa := avgTotal["P-A"]
	bestPIMPower := avgPower["Ambit"]
	for _, n := range []string{"D3", "D1"} {
		if avgPower[n] < bestPIMPower {
			bestPIMPower = avgPower[n]
		}
	}
	return []string{
		fmt.Sprintf("hashmap speedup vs GPU @k=16: %.1fx (paper: ~5.2x)", hm16GPU/hm16PA),
		fmt.Sprintf("hashmap speedup vs GPU @k=32: %.1fx (paper: ~9.8x)", hm32GPU/hm32PA),
		fmt.Sprintf("execution time vs GPU:   %.1fx (paper: ~5x)", avgTotal["GPU"]/pa),
		fmt.Sprintf("execution time vs Ambit: %.1fx (paper: 2.9x)", avgTotal["Ambit"]/pa),
		fmt.Sprintf("execution time vs D3:    %.1fx (paper: 2.5x)", avgTotal["D3"]/pa),
		fmt.Sprintf("execution time vs D1:    %.1fx (paper: 2.8x)", avgTotal["D1"]/pa),
		fmt.Sprintf("P-A average power: %.1f W (paper: 38.4 W)", avgPower["P-A"]),
		fmt.Sprintf("power vs GPU: %.1fx lower (paper: ~7.5x)", avgPower["GPU"]/avgPower["P-A"]),
		fmt.Sprintf("power vs best PIM: %.1fx lower (paper: ~2.8x)", bestPIMPower/avgPower["P-A"]),
	}
}

// --- E7: Fig. 10 — parallelism-degree trade-off ---

// Fig10Pds lists the swept parallelism degrees.
func Fig10Pds() []int { return []int{1, 2, 4, 8} }

// RenderFig10 writes the power/delay series and the optimum.
func RenderFig10(w io.Writer) {
	fmt.Fprintln(w, "Fig. 10 — power/delay vs parallelism degree (Pd)")
	for _, k := range []int{16, 32} {
		pts := perfmodel.PdTradeoff(PaperCounts(k), Fig10Pds())
		fmt.Fprintf(w, "  k=%d\n", k)
		for _, p := range pts {
			fmt.Fprintf(w, "    Pd=%d: delay=%6.1f s  power=%6.1f W  energy=%7.0f J\n",
				p.Pd, p.DelayS, p.PowerW, p.EnergyJ())
		}
		fmt.Fprintf(w, "    optimum (min energy): Pd=%d (paper: Pd ≈ 2)\n", perfmodel.OptimalPd(pts))
	}
}

// --- E8/E9: Fig. 11 — MBR and RUR ---

// Fig11 computes MBR/RUR for the five platforms at k = 16 and 32.
func Fig11() []perfmodel.Utilization {
	return perfmodel.Fig11(Fig9Platforms(), PaperCounts, []int{16, 32})
}

// RenderFig11 writes both panels.
func RenderFig11(w io.Writer) {
	fmt.Fprintln(w, "Fig. 11 — (a) memory bottleneck ratio, (b) resource utilization ratio")
	for _, u := range Fig11() {
		fmt.Fprintf(w, "  %s\n", u)
	}
}

// RenderAll runs every experiment in DESIGN.md order. The sections execute
// concurrently, each rendering into a private buffer; the buffers are
// flushed to w in the fixed section order, so the combined output is
// byte-identical to the old serial loop for any worker count.
func RenderAll(w io.Writer) {
	sections := []func(io.Writer){
		RenderFig2b, RenderFig3a, RenderFig3b, RenderTableI, RenderArea,
		RenderFig9, RenderFig10, RenderFig11, RenderKSweep,
		RenderSensitivity, RenderFaultStudy, RenderStream, RenderEngines,
	}
	rendered := parallel.Map(len(sections), func(i int) []byte {
		var buf bytes.Buffer
		sections[i](&buf)
		return buf.Bytes()
	})
	for i, b := range rendered {
		if i > 0 {
			fmt.Fprintln(w, strings.Repeat("-", 72))
		}
		w.Write(b)
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
