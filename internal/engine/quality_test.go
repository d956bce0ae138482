package engine

import (
	"context"
	"testing"

	"pimassembler/internal/assembly"
	"pimassembler/internal/genome"
	"pimassembler/internal/metrics"
	"pimassembler/internal/stats"
)

// TestGoldenAssemblyQuality pins the assembly quality of one seed-fixed
// noisy run — 6 000 × 101 bp reads with 1 % substitutions over a 20 kbp
// genome, k = 32, Correct + Simplify + MinCount = 2 (the end-to-end
// benchmark's sw_noisy_k32 option set) — scored by metrics.Evaluate against
// the reference. The byte-identity pins elsewhere hold for any deterministic
// change; this one fails when a correction or graph-cleaning change stays
// deterministic but loses contiguity, coverage, or lets more erroneous
// contigs through. Captured at the commit before the window-state corrector.
func TestGoldenAssemblyQuality(t *testing.T) {
	rng := stats.NewRNG(0x5B17)
	ref := genome.GenerateGenome(20_000, rng)
	reads := genome.NewReadSampler(ref, 101, 0.01, rng).Sample(6_000)
	opts := Options{Options: assembly.Options{K: 32, Correct: true, Simplify: true, MinCount: 2}, Ref: ref}
	rep, err := mustLookup(t, "software").Assemble(context.Background(), genome.NewSliceSource(reads), opts)
	if err != nil {
		t.Fatal(err)
	}
	want := metrics.Report{
		Contigs: 12, TotalBases: 20_416, ReferenceLen: 20_000,
		N50: 19_988, NG50: 19_988, LargestContig: 19_988, LargestAligned: 19_988,
		GenomeFraction: 19_988.0 / 20_000, Duplication: 1, Misassembled: 11,
	}
	if *rep.Quality != want {
		t.Fatalf("assembly quality moved:\n got %+v\nwant %+v", *rep.Quality, want)
	}
}
