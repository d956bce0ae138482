package engine

import (
	"context"
	"fmt"
	"testing"

	"pimassembler/internal/assembly"
	"pimassembler/internal/genome"
	"pimassembler/internal/metrics"
	"pimassembler/internal/stats"
)

// TestGoldenAssemblyQuality pins the assembly quality of seed-fixed noisy
// runs — 6 000 × 101 bp reads with 1 % substitutions over a 20 kbp genome,
// k = 32 — scored by metrics.Evaluate against the reference, for two seeds
// and two option sets: Correct + Simplify + MinCount = 2 (the end-to-end
// benchmark's sw_noisy_k32 set), and Simplify alone, where thousands of tips
// and bubbles reach the graph and stage 2 does all the cleaning. The
// byte-identity pins elsewhere hold for any deterministic change; this one
// fails when a correction, graph-construction or graph-cleaning change stays
// deterministic but loses contiguity, coverage, or lets more erroneous
// contigs through. The first row was captured at the commit before the
// window-state corrector, the others at the commit before the merge-join
// graph build.
func TestGoldenAssemblyQuality(t *testing.T) {
	cleaned := assembly.Options{K: 32, Correct: true, Simplify: true, MinCount: 2}
	simplifyOnly := assembly.Options{K: 32, Simplify: true}
	for _, tc := range []struct {
		seed uint64
		opts assembly.Options
		want metrics.Report
	}{
		{0x5B17, cleaned, metrics.Report{
			Contigs: 12, TotalBases: 20_416, ReferenceLen: 20_000,
			N50: 19_988, NG50: 19_988, LargestContig: 19_988, LargestAligned: 19_988,
			GenomeFraction: 19_988.0 / 20_000, Duplication: 1, Misassembled: 11,
		}},
		{0x5B18, cleaned, metrics.Report{
			Contigs: 9, TotalBases: 20_315, ReferenceLen: 20_000,
			N50: 19_990, NG50: 19_990, LargestContig: 19_990, LargestAligned: 19_990,
			GenomeFraction: 19_990.0 / 20_000, Duplication: 1, Misassembled: 8,
		}},
		{0x5B17, simplifyOnly, metrics.Report{
			Contigs: 4_321, TotalBases: 204_987, ReferenceLen: 20_000,
			N50: 54, NG50: 76, LargestContig: 140, LargestAligned: 140,
			GenomeFraction: 19_997.0 / 20_000, Duplication: 5.334450167525128, Misassembled: 1_524,
		}},
		{0x5B18, simplifyOnly, metrics.Report{
			Contigs: 4_414, TotalBases: 209_821, ReferenceLen: 20_000,
			N50: 54, NG50: 80, LargestContig: 247, LargestAligned: 247,
			GenomeFraction: 19_964.0 / 20_000, Duplication: 5.4145962732919255, Misassembled: 1_570,
		}},
	} {
		t.Run(fmt.Sprintf("seed%#x/correct=%v", tc.seed, tc.opts.Correct), func(t *testing.T) {
			rng := stats.NewRNG(tc.seed)
			ref := genome.GenerateGenome(20_000, rng)
			reads := genome.NewReadSampler(ref, 101, 0.01, rng).Sample(6_000)
			opts := Options{Options: tc.opts, Ref: ref}
			rep, err := mustLookup(t, "software").Assemble(context.Background(), genome.NewSliceSource(reads), opts)
			if err != nil {
				t.Fatal(err)
			}
			if *rep.Quality != tc.want {
				t.Fatalf("assembly quality moved:\n got %+v\nwant %+v", *rep.Quality, tc.want)
			}
		})
	}
}
