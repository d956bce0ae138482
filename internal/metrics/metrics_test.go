package metrics

import (
	"testing"

	"pimassembler/internal/assembly"
	"pimassembler/internal/debruijn"
	"pimassembler/internal/genome"
	"pimassembler/internal/stats"
)

func contigOf(s *genome.Sequence) debruijn.Contig {
	return debruijn.Contig{Seq: s, EdgeCount: s.Len(), MeanCoverage: 1}
}

func TestPerfectAssembly(t *testing.T) {
	rng := stats.NewRNG(1)
	ref := genome.GenerateGenome(1000, rng)
	rep := Evaluate([]debruijn.Contig{contigOf(ref)}, ref)
	if rep.GenomeFraction != 1 {
		t.Fatalf("genome fraction %v, want 1", rep.GenomeFraction)
	}
	if rep.Misassembled != 0 || rep.Duplication != 1 {
		t.Fatalf("unexpected report %+v", rep)
	}
	if rep.N50 != 1000 || rep.NG50 != 1000 || rep.LargestAligned != 1000 {
		t.Fatalf("length stats wrong: %+v", rep)
	}
}

func TestFragmentedAssembly(t *testing.T) {
	rng := stats.NewRNG(2)
	ref := genome.GenerateGenome(1000, rng)
	contigs := []debruijn.Contig{
		contigOf(ref.Subsequence(0, 600)),
		contigOf(ref.Subsequence(650, 300)),
	}
	rep := Evaluate(contigs, ref)
	if rep.GenomeFraction < 0.89 || rep.GenomeFraction > 0.91 {
		t.Fatalf("genome fraction %v, want 0.90", rep.GenomeFraction)
	}
	if rep.Misassembled != 0 {
		t.Fatal("exact substrings flagged misassembled")
	}
	if rep.NG50 != 600 {
		t.Fatalf("NG50 %d, want 600", rep.NG50)
	}
}

func TestMisassemblyDetected(t *testing.T) {
	rng := stats.NewRNG(3)
	ref := genome.GenerateGenome(500, rng)
	// A chimeric contig: two distant pieces joined.
	chimera := ref.Subsequence(0, 100).Append(ref.Subsequence(300, 100))
	rep := Evaluate([]debruijn.Contig{contigOf(chimera)}, ref)
	if rep.Misassembled != 1 {
		t.Fatalf("chimera not flagged: %+v", rep)
	}
	if rep.GenomeFraction != 0 {
		t.Fatal("misassembled contig must not count as coverage")
	}
}

func TestDuplicationCounted(t *testing.T) {
	rng := stats.NewRNG(4)
	ref := genome.GenerateGenome(400, rng)
	piece := ref.Subsequence(50, 200)
	rep := Evaluate([]debruijn.Contig{contigOf(piece), contigOf(piece)}, ref)
	if rep.Duplication != 2 {
		t.Fatalf("duplication %v, want 2", rep.Duplication)
	}
}

func TestRepeatContigCoversAllOccurrences(t *testing.T) {
	// Reference = X + Y + X: a contig equal to X covers both copies.
	rng := stats.NewRNG(5)
	x := genome.GenerateGenome(120, rng)
	y := genome.GenerateGenome(200, rng)
	ref := x.Append(y).Append(x)
	rep := Evaluate([]debruijn.Contig{contigOf(x)}, ref)
	wantFrac := float64(2*x.Len()) / float64(ref.Len())
	if rep.GenomeFraction < wantFrac-0.01 {
		t.Fatalf("genome fraction %v, want >= %v (both repeat copies)", rep.GenomeFraction, wantFrac)
	}
}

func TestEndToEndAssemblyQuality(t *testing.T) {
	rng := stats.NewRNG(6)
	ref := genome.GenerateGenome(5000, rng)
	reads := genome.NewReadSampler(ref, 101, 0, rng).Sample(2000)
	res, err := assembly.Assemble(reads, assembly.Options{K: 21})
	if err != nil {
		t.Fatal(err)
	}
	rep := Evaluate(res.Contigs, ref)
	if rep.GenomeFraction < 0.95 {
		t.Fatalf("clean 40x assembly covers only %.1f%%", 100*rep.GenomeFraction)
	}
	if rep.Misassembled > 0 {
		t.Fatalf("%d misassemblies on clean reads", rep.Misassembled)
	}
}

func TestSimplificationImprovesMetrics(t *testing.T) {
	rng := stats.NewRNG(7)
	ref := genome.GenerateGenome(3000, rng)
	reads := genome.NewReadSampler(ref, 80, 0.004, rng).Sample(1500)
	noisy, err := assembly.Assemble(reads, assembly.Options{K: 15})
	if err != nil {
		t.Fatal(err)
	}
	clean, err := assembly.Assemble(reads, assembly.Options{K: 15, MinCount: 3, Simplify: true})
	if err != nil {
		t.Fatal(err)
	}
	repNoisy := Evaluate(noisy.Contigs, ref)
	repClean := Evaluate(clean.Contigs, ref)
	if repClean.N50 <= repNoisy.N50 {
		t.Fatalf("simplification did not improve N50: %d vs %d", repClean.N50, repNoisy.N50)
	}
	if repClean.Contigs >= repNoisy.Contigs {
		t.Fatalf("simplification did not reduce fragmentation: %d vs %d",
			repClean.Contigs, repNoisy.Contigs)
	}
}

func TestEvaluateEmpty(t *testing.T) {
	rng := stats.NewRNG(8)
	ref := genome.GenerateGenome(100, rng)
	rep := Evaluate(nil, ref)
	if rep.Contigs != 0 || rep.GenomeFraction != 0 || rep.N50 != 0 {
		t.Fatalf("empty evaluation %+v", rep)
	}
}
