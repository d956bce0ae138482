// Quickstart: build a PIM-Assembler platform, run an in-memory bulk XNOR,
// count k-mers in the simulated DRAM, and assemble a toy genome.
package main

import (
	"fmt"

	"pimassembler/internal/assembly"
	"pimassembler/internal/bitvec"
	"pimassembler/internal/core"
	"pimassembler/internal/genome"
	"pimassembler/internal/kmer"
	"pimassembler/internal/stats"
)

func main() {
	// 1. A platform with the paper's default memory organisation.
	p := core.NewDefaultPlatform()
	fmt.Println("platform:", p.Geometry())

	// 2. Bulk in-memory XNOR: the §II-B primitive. Operands must be padded
	//    to the 256-bit row size.
	n := p.BulkPad(1000)
	a, b := bitvec.New(n), bitvec.New(n)
	rng := stats.NewRNG(1)
	for i := 0; i < n; i++ {
		a.Set(i, rng.Float64() < 0.5)
		b.Set(i, rng.Float64() < 0.5)
	}
	res := p.BulkXNOR(a, b)
	fmt.Printf("bulk XNOR over %d bits: %d matching positions\n", n, res.PopCount())

	// 3. The PIM hash table: Fig. 5b's Hashmap procedure on the worked
	//    example S = CGTGCGTGCTT, k = 5.
	p.Reset()
	table := core.NewHashTable(p, 5, 1)
	s := genome.MustFromString("CGTGCGTGCTT")
	for _, km := range kmer.AppendKmers(nil, s, 5) {
		if _, err := table.Add(km); err != nil {
			panic(err)
		}
	}
	fmt.Println("hash table entries (read back from simulated DRAM):")
	for _, e := range table.Entries() {
		fmt.Printf("  %s  %d\n", e.Kmer.String(5), e.Count)
	}
	sum := p.Summarize()
	fmt.Printf("command stream: %d commands, %.1f µs serial, %.1f nJ\n",
		sum.Commands, sum.SerialLatencyNS/1e3, sum.EnergyPJ/1e3)

	// 4. End-to-end assembly of a random 2 kbp genome from overlapping reads.
	g := genome.GenerateGenome(2000, stats.NewRNG(42))
	reads := genome.TilingReads(g, 101, 60)
	out, err := assembly.Assemble(reads, assembly.Options{K: 21})
	if err != nil {
		panic(err)
	}
	fmt.Printf("assembled %d reads into %d contig(s); first contig %d bp (genome %d bp)\n",
		len(reads), len(out.Contigs), out.Contigs[0].Seq.Len(), g.Len())
}
