package debruijn

import (
	"testing"

	"pimassembler/internal/genome"
	"pimassembler/internal/kmer"
	"pimassembler/internal/stats"
)

func benchTable(b *testing.B, genomeLen, k int) *kmer.CountTable {
	b.Helper()
	rng := stats.NewRNG(1)
	g := genome.GenerateGenome(genomeLen, rng)
	reads := genome.NewReadSampler(g, 101, 0, rng).Sample(genomeLen / 4)
	return kmer.CountReads(reads, k)
}

// graphShapes are the k = 16 graphs Build and Contigs are timed on: a
// 10 kbp genome under 2 500 reads, whose graph sits in L2, and the sw_100k
// shape, 1 Mbp under 100 k reads of 101 bp, whose graph does not.
var graphShapes = []struct {
	name                string
	genomeLen, numReads int
}{
	{"10kbp", 10_000, 2_500},
	{"1Mbp", 1_000_000, 100_000},
}

// shapeTables holds each shape's counted reads, built by the first
// benchmark that needs them and shared by the rest.
var shapeTables = map[string]*kmer.CountTable{}

func shapeTable(b *testing.B, name string, genomeLen, numReads int) *kmer.CountTable {
	b.Helper()
	if t, ok := shapeTables[name]; ok {
		return t
	}
	rng := stats.NewRNG(1)
	g := genome.GenerateGenome(genomeLen, rng)
	reads := genome.NewReadSampler(g, 101, 0, rng).Sample(numReads)
	t := kmer.CountReads(reads, 16)
	shapeTables[name] = t
	return t
}

func BenchmarkBuild(b *testing.B) {
	for _, sh := range graphShapes {
		b.Run(sh.name, func(b *testing.B) {
			tbl := shapeTable(b, sh.name, sh.genomeLen, sh.numReads)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Build(tbl)
			}
		})
	}
}

func BenchmarkEulerPath(b *testing.B) {
	tbl := benchTable(b, 5_000, 16)
	g := Build(tbl)
	if _, err := g.EulerPath(); err != nil {
		b.Skip("non-Eulerian sample")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.EulerPath(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkContigs(b *testing.B) {
	for _, sh := range graphShapes {
		b.Run(sh.name, func(b *testing.B) {
			g := Build(shapeTable(b, sh.name, sh.genomeLen, sh.numReads))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.Contigs()
			}
		})
	}
}

func BenchmarkSimplify(b *testing.B) {
	rng := stats.NewRNG(2)
	ref := genome.GenerateGenome(3_000, rng)
	reads := genome.NewReadSampler(ref, 80, 0.004, rng).Sample(1_500)
	k := 15
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		tbl := kmer.CountReads(reads, k)
		g := Build(tbl)
		b.StartTimer()
		g.CoverageCutoff(3)
		g.Simplify(2*k, 2*k, 10)
	}
}
