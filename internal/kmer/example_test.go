package kmer_test

import (
	"fmt"

	"pimassembler/internal/genome"
	"pimassembler/internal/kmer"
)

// The paper's Fig. 5b worked example: hashing S = CGTGCGTGCTT at k = 5.
func ExampleCountTable() {
	s := genome.MustFromString("CGTGCGTGCTT")
	tbl := kmer.NewCountTable(5, 8)
	kmer.Iterate(s, 5, func(km kmer.Kmer) { tbl.Add(km) })
	for _, e := range tbl.Entries() {
		fmt.Printf("%s %d\n", e.Kmer.String(5), e.Count)
	}
	// Unordered output:
	// CGTGC 2
	// GTGCG 1
	// TGCGT 1
	// GCGTG 1
	// GTGCT 1
	// TGCTT 1
}

// Prefix and suffix are the de Bruijn node pair of Fig. 5c.
func ExampleKmer_Prefix() {
	km := kmer.MustParse("CGTGC")
	fmt.Println(km.Prefix(5).String(4), "->", km.Suffix(5).String(4))
	// Output: CGTG -> GTGC
}

func ExampleAppendKmers() {
	codes := genome.MustFromString("ACGTAC").AppendCodes(nil)
	for _, km := range kmer.AppendKmers(nil, codes, 4) {
		fmt.Println(km.String(4))
	}
	// Output:
	// ACGT
	// CGTA
	// GTAC
}
