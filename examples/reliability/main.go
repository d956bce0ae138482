// Reliability: closes the loop between Table I's circuit-level Monte-Carlo
// study and the application — the per-mechanism error rates at each process
// corner become bit-flip injections on the functional sub-arrays, and the
// quality of the resulting assembly is scored against the reference.
package main

import (
	"fmt"

	"pimassembler/internal/assembly"
	"pimassembler/internal/core"
	"pimassembler/internal/fault"
	"pimassembler/internal/genome"
	"pimassembler/internal/metrics"
	"pimassembler/internal/stats"
)

func main() {
	rng := stats.NewRNG(404)
	ref := genome.GenerateGenome(1500, rng)
	reads := genome.NewReadSampler(ref, 90, 0, rng).Sample(200)
	opts := assembly.Options{K: 15}

	fmt.Println("assembly quality under injected process-variation faults")
	fmt.Printf("%-10s %-22s %s\n", "corner", "rates (2-row / TRA)", "result")

	for _, corner := range []struct {
		name      string
		variation float64
	}{
		{"±5%", 0.05},
		{"±10%", 0.10},
		{"±20%", 0.20},
		{"±30%", 0.30},
	} {
		rates := fault.RatesFromVariation(corner.variation, 5000, 11)
		p := core.NewDefaultPlatform()
		injector := fault.NewInjector(rates, stats.NewRNG(12))
		injector.AttachPlatform(p)
		res, err := assembly.AssemblePIM(p, genome.NewSliceSource(reads), opts, 16)
		if err != nil {
			fmt.Printf("%-10s %-22s pipeline failed: %v\n", corner.name,
				fmt.Sprintf("%.2g / %.2g", rates.TwoRow, rates.TRA), err)
			continue
		}
		rep := metrics.Evaluate(res.Contigs, ref)
		fmt.Printf("%-10s %-22s genome %.1f%%, %d contigs, %d misassembled, %d bit flips\n",
			corner.name,
			fmt.Sprintf("%.2g / %.2g", rates.TwoRow, rates.TRA),
			100*rep.GenomeFraction, rep.Contigs, rep.Misassembled, injector.FlippedBits)
	}

	fmt.Println("\nTakeaway: at ±5% (error-free in Table I) the in-memory pipeline")
	fmt.Println("reproduces the reference assembly exactly. Even the residual")
	fmt.Println("~2x10^-4 two-row flip rate at ±10% fragments the graph — the bulk")
	fmt.Println("pipeline is unforgiving of compute errors, which is why the")
	fmt.Println("two-row mechanism's noise margin matters. Past the cliff (±20%+)")
	fmt.Println("corrupted match results insert runaway duplicates until the k-mer")
	fmt.Println("region overflows.")
}
