package eval

import (
	"fmt"
	"io"

	"pimassembler/internal/assembly"
	"pimassembler/internal/circuit"
	"pimassembler/internal/core"
	"pimassembler/internal/fault"
	"pimassembler/internal/genome"
	"pimassembler/internal/metrics"
	"pimassembler/internal/parallel"
	"pimassembler/internal/perfmodel"
	"pimassembler/internal/stats"
)

// RenderFig2b writes the reconfigurable SA's inverter voltage-transfer
// characteristics and the NOR/NAND/XOR truth table of Fig. 2b.
func RenderFig2b(w io.Writer) {
	fmt.Fprintln(w, "Fig. 2b — VTC of the SA's inverters and the detector truth table")
	low, high, normal := circuit.LowVsInverter(), circuit.HighVsInverter(), circuit.NormalInverter()
	fmt.Fprintf(w, "  switching voltages: low-Vs=%.2fV  normal-Vs=%.2fV  high-Vs=%.2fV (Vdd=%.1fV)\n",
		low.Vs, normal.Vs, high.Vs, circuit.Vdd)
	fmt.Fprintln(w, "\n  Vin,  Vout(high-Vs), Vout(low-Vs), Vout(normal-Vs)")
	for vin := 0.0; vin <= circuit.Vdd+1e-9; vin += circuit.Vdd / 12 {
		fmt.Fprintf(w, "  %.2f %12.3f %12.3f %12.3f\n",
			vin, high.Vout(vin), low.Vout(vin), normal.Vout(vin))
	}
	fmt.Fprintln(w, "\n  Di Dj | out1(NOR) out2(NAND) out3(XOR)")
	sa := circuit.NewSenseAmp()
	for p := 0; p < 4; p++ {
		di, dj := p&1 != 0, p&2 != 0
		n := b2i(di) + b2i(dj)
		nor, nand, xor := sa.DetectorOutputs(circuit.IdealShare(n, 2))
		fmt.Fprintf(w, "   %d  %d  |     %d        %d         %d\n",
			b2i(di), b2i(dj), b2i(nor), b2i(nand), b2i(xor))
	}
}

// FaultCorner is one row of the reliability study.
type FaultCorner struct {
	Variation      float64
	Rates          fault.Rates
	GenomeFraction float64
	Contigs        int
	FlippedBits    int64
	Failed         bool
}

// FaultStudy runs the Table-I-to-application experiment: inject each
// corner's error rates into a functional assembly and score the result.
// The corners run concurrently — the workload is generated once before the
// fan-out, each corner owns its platform, injector, and fixed-seed RNGs,
// and results land in corner-indexed slots, so the study is deterministic
// for any worker count.
func FaultStudy() []FaultCorner {
	rng := stats.NewRNG(Seed)
	ref := genome.GenerateGenome(1200, rng)
	reads := genome.NewReadSampler(ref, 90, 0, rng).Sample(150)
	opts := assembly.Options{K: 15}

	corners := []float64{0.05, 0.10, 0.20, 0.30}
	return parallel.Map(len(corners), func(i int) FaultCorner {
		v := corners[i]
		corner := FaultCorner{Variation: v, Rates: fault.RatesFromVariation(v, 5000, Seed+1)}
		p := core.NewDefaultPlatform()
		injector := fault.NewInjector(corner.Rates, stats.NewRNG(Seed+2))
		injector.AttachPlatform(p)
		res, err := assembly.AssemblePIM(p, genome.NewSliceSource(reads), opts, 16)
		corner.FlippedBits = injector.FlippedBits
		if err != nil {
			corner.Failed = true
		} else {
			rep := metrics.Evaluate(res.Contigs, ref)
			corner.GenomeFraction = rep.GenomeFraction
			corner.Contigs = rep.Contigs
		}
		return corner
	})
}

// RenderSensitivity writes the calibration-audit sweep: the headline
// speedups with the DispatchParallel constant halved and doubled.
func RenderSensitivity(w io.Writer) {
	perfmodel.RenderSensitivity(w, PaperCounts(16), []float64{0.5, 0.75, 1, 1.5, 2})
}

// RenderFaultStudy writes the reliability table.
func RenderFaultStudy(w io.Writer) {
	fmt.Fprintln(w, "Fault study — Table I error rates injected into the functional pipeline")
	fmt.Fprintf(w, "  %-8s %-20s %s\n", "corner", "rates (2-row/TRA)", "assembly outcome")
	for _, c := range FaultStudy() {
		rates := fmt.Sprintf("%.2g / %.2g", c.Rates.TwoRow, c.Rates.TRA)
		if c.Failed {
			fmt.Fprintf(w, "  ±%-7.0f %-20s table overflow from corrupted matches (%d flips)\n",
				c.Variation*100, rates, c.FlippedBits)
			continue
		}
		fmt.Fprintf(w, "  ±%-7.0f %-20s genome %.1f%%, %d contigs, %d flips\n",
			c.Variation*100, rates, 100*c.GenomeFraction, c.Contigs, c.FlippedBits)
	}
}
