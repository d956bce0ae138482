package assembly

import (
	"math"
	"testing"

	"pimassembler/internal/debruijn"
	"pimassembler/internal/genome"
	"pimassembler/internal/stats"
)

// samplePairs draws n pairs from s.
func samplePairs(s *genome.PairedSampler, n int) []genome.ReadPair {
	pairs := make([]genome.ReadPair, n)
	for i := range pairs {
		pairs[i] = s.Next()
	}
	return pairs
}

// cutContigs slices a reference into contigs with known gaps, shuffled.
func cutContigs(ref *genome.Sequence, cuts []int, gap int, rng *stats.RNG) ([]debruijn.Contig, []int) {
	var contigs []debruijn.Contig
	pos := 0
	for _, length := range cuts {
		contigs = append(contigs, debruijn.Contig{
			Seq: ref.Subsequence(pos, length), EdgeCount: length, MeanCoverage: 1,
		})
		pos += length + gap
	}
	order := rng.Perm(len(contigs))
	shuffled := make([]debruijn.Contig, len(contigs))
	trueIndex := make([]int, len(contigs)) // shuffled position of true piece i
	for newPos, origIdx := range order {
		shuffled[newPos] = contigs[origIdx]
		trueIndex[origIdx] = newPos
	}
	return shuffled, trueIndex
}

func TestMatePairScaffoldRecoversOrder(t *testing.T) {
	rng := stats.NewRNG(200)
	ref := genome.GenerateGenome(6000, rng)
	const gap = 50
	contigs, trueIdx := cutContigs(ref, []int{1200, 1500, 1100, 1300}, gap, rng)

	pairs := samplePairs(genome.NewPairedSampler(ref, 60, 400, 20, 0, rng), 3000)

	scaffolds := MatePairScaffold(contigs, pairs, 21, 400, 3)
	if len(scaffolds) != 1 {
		t.Fatalf("got %d scaffolds, want one chain", len(scaffolds))
	}
	got := scaffolds[0].Contigs
	if len(got) != 4 {
		t.Fatalf("chain has %d contigs, want 4", len(got))
	}
	for i, want := range trueIdx {
		if got[i] != want {
			t.Fatalf("position %d: contig %d, want %d (chain %v)", i, got[i], want, got)
		}
	}
	// Gap estimates near the true 50 bp (insert-size noise allows slack).
	for i, g := range scaffolds[0].Gaps {
		if math.Abs(float64(g-gap)) > 40 {
			t.Errorf("gap %d estimated %d, want ~%d", i, g, gap)
		}
	}
	if scaffolds[0].Support < 9 {
		t.Errorf("support %d implausibly low", scaffolds[0].Support)
	}
}

// scaffoldSpan returns a scaffold's estimated total span in bases.
func scaffoldSpan(m MateScaffold, contigs []debruijn.Contig) int {
	span := 0
	for _, ci := range m.Contigs {
		span += contigs[ci].Seq.Len()
	}
	for _, g := range m.Gaps {
		span += g
	}
	return span
}

func TestMatePairScaffoldSpan(t *testing.T) {
	rng := stats.NewRNG(201)
	ref := genome.GenerateGenome(4000, rng)
	contigs, _ := cutContigs(ref, []int{1000, 1000, 1000}, 100, rng)
	pairs := samplePairs(genome.NewPairedSampler(ref, 60, 500, 25, 0, rng), 2500)
	scaffolds := MatePairScaffold(contigs, pairs, 21, 500, 3)
	if len(scaffolds) != 1 {
		t.Fatalf("got %d scaffolds", len(scaffolds))
	}
	span := scaffoldSpan(scaffolds[0], contigs)
	// True span: 3x1000 + 2x100 = 3200.
	if span < 3000 || span > 3400 {
		t.Fatalf("span %d far from 3200", span)
	}
}

func TestMatePairScaffoldUnlinkedStaySeparate(t *testing.T) {
	rng := stats.NewRNG(202)
	// Two unrelated references; pairs only from the first.
	refA := genome.GenerateGenome(2000, rng)
	refB := genome.GenerateGenome(1500, rng)
	contigs := []debruijn.Contig{
		{Seq: refA.Subsequence(0, 900), EdgeCount: 900, MeanCoverage: 1},
		{Seq: refA.Subsequence(1000, 900), EdgeCount: 900, MeanCoverage: 1},
		{Seq: refB, EdgeCount: refB.Len(), MeanCoverage: 1},
	}
	pairs := samplePairs(genome.NewPairedSampler(refA, 60, 400, 20, 0, rng), 2000)
	scaffolds := MatePairScaffold(contigs, pairs, 21, 400, 3)
	if len(scaffolds) != 2 {
		t.Fatalf("got %d scaffolds, want 2 (chain + singleton)", len(scaffolds))
	}
	if len(scaffolds[0].Contigs) != 2 || scaffolds[0].Contigs[0] != 0 || scaffolds[0].Contigs[1] != 1 {
		t.Fatalf("chain %v, want [0 1]", scaffolds[0].Contigs)
	}
	if len(scaffolds[1].Contigs) != 1 || scaffolds[1].Contigs[0] != 2 {
		t.Fatalf("singleton %v, want [2]", scaffolds[1].Contigs)
	}
}

func TestMatePairScaffoldMinSupportFilters(t *testing.T) {
	rng := stats.NewRNG(203)
	ref := genome.GenerateGenome(3000, rng)
	contigs, _ := cutContigs(ref, []int{1400, 1400}, 60, rng)
	// Too few pairs to reach the support threshold.
	pairs := samplePairs(genome.NewPairedSampler(ref, 60, 400, 20, 0, rng), 10)
	scaffolds := MatePairScaffold(contigs, pairs, 21, 400, 50)
	if len(scaffolds) != 2 {
		t.Fatalf("weakly-supported link accepted: %d scaffolds", len(scaffolds))
	}
}

func TestMatePairScaffoldEndToEnd(t *testing.T) {
	// Full pipeline: repeat-fragmented assembly, then mate pairs stitch the
	// contigs back into chains.
	rng := stats.NewRNG(204)
	ref := genome.GenerateRepetitiveGenome(8000, 400, 3, rng)
	pairs := samplePairs(genome.NewPairedSampler(ref, 80, 600, 30, 0, rng), 4000)
	reads := genome.Flatten(pairs)
	res, err := Assemble(reads, Options{K: 21})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Contigs) < 2 {
		t.Skip("assembly not fragmented; repeats did not collide")
	}
	scaffolds := MatePairScaffold(res.Contigs, pairs, 21, 600, 3)
	if len(scaffolds) >= len(res.Contigs) {
		t.Fatalf("scaffolding linked nothing: %d contigs -> %d scaffolds",
			len(res.Contigs), len(scaffolds))
	}
	// Every contig appears exactly once across scaffolds.
	seen := make(map[int]bool)
	for _, s := range scaffolds {
		for _, c := range s.Contigs {
			if seen[c] {
				t.Fatalf("contig %d in two scaffolds", c)
			}
			seen[c] = true
		}
	}
	if len(seen) != len(res.Contigs) {
		t.Fatalf("%d of %d contigs placed", len(seen), len(res.Contigs))
	}
}

func TestPairedSamplerGeometry(t *testing.T) {
	rng := stats.NewRNG(205)
	ref := genome.GenerateGenome(5000, rng)
	s := genome.NewPairedSampler(ref, 50, 300, 0, 0, rng)
	p := s.Next()
	if p.R1.Len() != 50 || p.R2.Len() != 50 {
		t.Fatal("read lengths wrong")
	}
	if p.InsertSize != 300 {
		t.Fatalf("insert %d, want 300 with zero std", p.InsertSize)
	}
	// R1 must occur verbatim; R2's reverse complement must occur.
	text := ref.String()
	if !contains(text, p.R1.String()) {
		t.Fatal("R1 not in genome")
	}
	if !contains(text, p.R2.ReverseComplement().String()) {
		t.Fatal("R2 revcomp not in genome")
	}
}

func contains(hay, needle string) bool {
	for i := 0; i+len(needle) <= len(hay); i++ {
		if hay[i:i+len(needle)] == needle {
			return true
		}
	}
	return false
}

func TestPairedSamplerPanics(t *testing.T) {
	rng := stats.NewRNG(206)
	g := genome.GenerateGenome(1000, rng)
	for _, f := range []func(){
		func() { genome.NewPairedSampler(g, 100, 150, 0, 0, rng) }, // insert < 2*readLen
		func() { genome.NewPairedSampler(g, 50, 990, 10, 0, rng) }, // insert too large
		func() { genome.NewPairedSampler(g, 50, 300, 0, 1.0, rng) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}
