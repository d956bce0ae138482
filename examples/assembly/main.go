// Assembly: the full genome-assembly scenario the paper's evaluation runs —
// scaled to a synthetic bacterial-sized genome — executed on both the
// software reference and the functional PIM simulator, cross-checked, with
// the paper's k sweep and per-platform cost estimates for the full-scale
// chromosome-14 workload.
package main

import (
	"context"
	"fmt"

	"pimassembler/internal/assembly"
	"pimassembler/internal/debruijn"
	"pimassembler/internal/engine"
	"pimassembler/internal/genome"
	"pimassembler/internal/metrics"
	"pimassembler/internal/stats"
)

func main() {
	// A 50 kbp synthetic genome with planted repeats, sequenced at ~20x.
	rng := stats.NewRNG(2024)
	ref := genome.GenerateRepetitiveGenome(50_000, 300, 4, rng)
	sampler := genome.NewReadSampler(ref, 101, 0, rng)
	reads := sampler.Sample(10_000)
	fmt.Printf("workload: %d reads x %d bp from a %d bp genome (%.1fx coverage)\n",
		len(reads), 101, ref.Len(), float64(len(reads))*101/float64(ref.Len()))

	// The paper's k sweep on the software pipeline.
	fmt.Println("\nk sweep (software reference):")
	for _, k := range []int{16, 22, 26, 32} {
		res, err := assembly.Assemble(reads, assembly.Options{K: k})
		if err != nil {
			panic(err)
		}
		rep := metrics.Evaluate(res.Contigs, ref)
		fmt.Printf("  k=%-2d distinct=%7d  %s  hashmap=%v deBruijn=%v traverse=%v\n",
			k, int(res.Counts.DistinctKmers), rep,
			res.Timings.Hashmap.Round(1e6), res.Timings.DeBruijn.Round(1e6), res.Timings.Traverse.Round(1e6))
	}

	// Every execution path is one engine in the pluggable registry: resolve
	// by name, run the same workload, compare the unified Reports.
	fmt.Println("\nregistered engines:")
	for _, e := range engine.Engines() {
		fmt.Printf("  %-14s %s\n", e.Name(), e.Describe())
	}

	// Functional PIM run on a slice of the workload, cross-checked against
	// the software engine's output.
	ctx := context.Background()
	small := reads[:600]
	opts := engine.Options{Options: assembly.Options{K: 16}, Subarrays: 64}
	software, pim := mustEngine("software"), mustEngine("pim")
	sw, err := software.Assemble(ctx, genome.NewSliceSource(small), opts)
	if err != nil {
		panic(err)
	}
	pimRep, err := pim.Assemble(ctx, genome.NewSliceSource(small), opts)
	if err != nil {
		panic(err)
	}
	if len(sw.Contigs) != len(pimRep.Contigs) {
		panic(fmt.Sprintf("contig count mismatch: software %d, PIM %d", len(sw.Contigs), len(pimRep.Contigs)))
	}
	for i := range sw.Contigs {
		if !sw.Contigs[i].Seq.Equal(pimRep.Contigs[i].Seq) {
			panic("contig sequence mismatch between software and PIM engines")
		}
	}
	fn := pimRep.Functional
	fmt.Printf("\nfunctional PIM run (%d reads): contigs identical to software; %d DRAM commands, %.1f ms serial -> %.1f ms scheduled (%.0fx overlap), %.1f µJ\n",
		len(small), fn.Commands, fn.SerialLatencyNS/1e6, fn.Makespan.MakespanNS/1e6, fn.Makespan.Speedup, fn.EnergyPJ/1e6)

	// The recorded command stream attributes that cost to pipeline stages
	// and prices each stage under the controller scheduler.
	fmt.Println("per-stage attribution from the recorded command stream:")
	for _, c := range fn.StageCosts {
		fmt.Printf("  %s  makespan %.1f µs\n", c, fn.Stages[c.Stage].MakespanNS/1e3)
	}

	// Stage 3 extension: greedy scaffolding.
	scaffolds := assembly.ScaffoldContigs(sw.Contigs, 12)
	fmt.Printf("stage 3 (extension): %d contigs -> %d scaffolds\n", len(sw.Contigs), len(scaffolds))

	// Paired-end variant: mate pairs stitch repeat-fragmented contigs into
	// ordered chains with estimated gaps.
	paired := genome.NewPairedSampler(ref, 80, 600, 30, 0, stats.NewRNG(7))
	pairs := make([]genome.ReadPair, 4000)
	for i := range pairs {
		pairs[i] = paired.Next()
	}
	pres, err := assembly.Assemble(genome.Flatten(pairs), assembly.Options{K: 21})
	if err != nil {
		panic(err)
	}
	mates := assembly.MatePairScaffold(pres.Contigs, pairs, 21, 600, 3)
	fmt.Printf("mate-pair scaffolding: %d contigs -> %d scaffolds\n", len(pres.Contigs), len(mates))

	// Noisy reads: spectrum correction + graph simplification recover a
	// clean assembly from 0.3%% error reads.
	noisyRng := stats.NewRNG(8)
	noisy := genome.NewReadSampler(ref, 80, 0.003, noisyRng).Sample(12000)
	raw, err := assembly.Assemble(noisy, assembly.Options{K: 15})
	if err != nil {
		panic(err)
	}
	cleaned, err := assembly.Assemble(noisy, assembly.Options{K: 15, Correct: true, MinCount: 3, Simplify: true})
	if err != nil {
		panic(err)
	}
	fmt.Printf("error handling: raw %d contigs (N50 %d) -> corrected+simplified %d contigs (N50 %d)\n",
		len(raw.Contigs), debruijn.N50(raw.Contigs),
		len(cleaned.Contigs), debruijn.N50(cleaned.Contigs))

	// Full-scale chr14 estimates (the Fig. 9 analysis): the analytical
	// engines price a supplied operation profile directly, no reads needed.
	fmt.Println("\nfull-scale chromosome-14 estimates (k=16):")
	counts := assembly.PaperOpCounts(genome.PaperChr14(), 16)
	for _, name := range []string{"gpu", "pim-assembler", "ambit", "drisa-3t1c", "drisa-1t1c"} {
		rep, err := mustEngine(name).Assemble(ctx, nil, engine.Options{Counts: &counts})
		if err != nil {
			panic(err)
		}
		fmt.Println(" ", *rep.Cost)
	}
}

// mustEngine resolves a registry name or panics.
func mustEngine(name string) engine.Engine {
	e, err := engine.Lookup(name)
	if err != nil {
		panic(err)
	}
	return e
}
