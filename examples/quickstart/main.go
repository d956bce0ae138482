// Quickstart: build a PIM-Assembler platform, run one in-memory XNOR on a
// sub-array, count k-mers in the simulated DRAM, and assemble a toy genome
// on the functional PIM engine.
package main

import (
	"context"
	"fmt"

	"pimassembler/internal/assembly"
	"pimassembler/internal/bitvec"
	"pimassembler/internal/core"
	"pimassembler/internal/engine"
	"pimassembler/internal/genome"
	"pimassembler/internal/kmer"
	"pimassembler/internal/stats"
)

func main() {
	// 1. A platform with the paper's default memory organisation.
	p := core.NewDefaultPlatform()
	fmt.Println("platform:", p.Geometry())

	// 2. In-memory XNOR: the §II-B primitive. Two operand rows are written
	//    into a sub-array, compared in place and the result row read back.
	row := p.Geometry().RowBits()
	a, b, res := bitvec.New(row), bitvec.New(row), bitvec.New(row)
	rng := stats.NewRNG(1)
	for i := 0; i < row; i++ {
		a.Set(i, rng.Float64() < 0.5)
		b.Set(i, rng.Float64() < 0.5)
	}
	s := p.Subarray(0)
	s.Write(0, a)
	s.Write(1, b)
	s.XNOR(0, 1, 2)
	s.ReadInto(2, res)
	fmt.Printf("row XNOR over %d bits: %d matching positions\n", row, res.PopCount())

	// 3. The PIM hash table: Fig. 5b's Hashmap procedure on the worked
	//    example S = CGTGCGTGCTT, k = 5.
	p.Reset()
	table := core.NewHashTableAt(p, 5, 0, 1)
	for _, km := range kmer.AppendKmers(nil, genome.MustFromString("CGTGCGTGCTT").AppendCodes(nil), 5) {
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

	// 4. End-to-end assembly of a random 2 kbp genome on the pim engine: the
	//    three stages run on a fresh simulated platform, whose Summarize
	//    comes back with the contigs.
	g := genome.GenerateGenome(2000, stats.NewRNG(42))
	reads := genome.NewReadSampler(g, 101, 0, stats.NewRNG(43)).Sample(200)
	pim, err := engine.Lookup("pim")
	if err != nil {
		panic(err)
	}
	opts := engine.Options{Options: assembly.Options{K: 21}, Ref: g}
	rep, err := pim.Assemble(context.Background(), genome.NewSliceSource(reads), opts)
	if err != nil {
		panic(err)
	}
	fn := rep.Functional
	fmt.Printf("assembled %d reads into %d contig(s): %s\n", len(reads), len(rep.Contigs), rep.Quality)
	fmt.Printf("  %d DRAM commands on %d sub-arrays, %.1f µs scheduled, %.1f µJ\n",
		fn.Commands, fn.Subarrays, fn.Makespan.MakespanNS/1e3, fn.EnergyPJ/1e6)
}
