package debruijn

import (
	"fmt"
	"testing"

	"pimassembler/internal/genome"
	"pimassembler/internal/kmer"
	"pimassembler/internal/stats"
)

// Differential suite: the dense rank-ID/CSR Graph must be
// observationally byte-identical to the retained map-based MapGraph — same
// nodes, degrees, adjacency order, contigs, and Eulerian walks — across
// k ∈ {2..8} and the four PR-5 workload shapes the shard invariance suite
// uses. This is the safety net under the representation swap.

// diffWorkload mirrors the shard property-test workload generator.
func diffWorkload(seed uint64, genomeLen, readLen, numReads int, errRate float64) []*genome.Sequence {
	rng := stats.NewRNG(seed)
	ref := genome.GenerateGenome(genomeLen, rng)
	return genome.NewReadSampler(ref, readLen, errRate, rng).Sample(numReads)
}

// diffShapes are the four PR-5 workload shapes (shard.TestShardCountInvariance).
var diffShapes = []struct {
	name                         string
	seed                         uint64
	genomeLen, readLen, numReads int
	errRate                      float64
}{
	{"clean reads", 21, 2_000, 101, 150, 0},
	{"erroneous reads", 22, 1_500, 80, 200, 0.01},
	{"short genome", 23, 400, 60, 64, 0},
	{"reads barely above k", 24, 900, 18, 120, 0},
}

// assertGraphsMatch compares every observable of the two representations.
func assertGraphsMatch(t *testing.T, dense *Graph, ref *MapGraph) {
	t.Helper()
	assertAdjacencyMatches(t, dense, ref)
	assertContigsMatchMap(t, dense, ref)
	assertEulerMatches(t, dense, ref)
}

// assertAdjacencyMatches compares nodes, edge counts and every node's
// outgoing edges in order.
func assertAdjacencyMatches(t *testing.T, dense *Graph, ref *MapGraph) {
	t.Helper()
	if dense.NumNodes() != ref.NumNodes() {
		t.Fatalf("nodes: dense %d, map %d", dense.NumNodes(), ref.NumNodes())
	}
	if dense.NumEdges() != ref.NumEdges() {
		t.Fatalf("edges: dense %d, map %d", dense.NumEdges(), ref.NumEdges())
	}

	dn, rn := dense.Nodes(), ref.Nodes()
	for i := range dn {
		if dn[i] != rn[i] {
			t.Fatalf("node %d: dense %v, map %v", i, dn[i], rn[i])
		}
		dOut, rOut := dense.Out(dn[i]), ref.Out(rn[i])
		if len(dOut) != len(rOut) {
			t.Fatalf("node %v: out-degree dense %d, map %d", dn[i], len(dOut), len(rOut))
		}
		for j := range dOut {
			if dOut[j] != rOut[j] {
				t.Fatalf("node %v edge %d: dense %+v, map %+v", dn[i], j, dOut[j], rOut[j])
			}
		}
	}
}

// assertContigsMatchMap compares the contig sets. MapGraph marks a used edge
// by its k-mer, so it is no oracle for a graph that holds one k-mer twice.
func assertContigsMatchMap(t *testing.T, dense *Graph, ref *MapGraph) {
	t.Helper()
	dContigs, rContigs := dense.Contigs(), ref.Contigs()
	if len(dContigs) != len(rContigs) {
		t.Fatalf("contigs: dense %d, map %d", len(dContigs), len(rContigs))
	}
	for i := range dContigs {
		if got, want := dContigs[i].Seq.String(), rContigs[i].Seq.String(); got != want {
			t.Fatalf("contig %d: dense %q, map %q", i, got, want)
		}
		if dContigs[i].EdgeCount != rContigs[i].EdgeCount {
			t.Fatalf("contig %d: edge count dense %d, map %d", i, dContigs[i].EdgeCount, rContigs[i].EdgeCount)
		}
		if dContigs[i].MeanCoverage != rContigs[i].MeanCoverage {
			t.Fatalf("contig %d: coverage dense %v, map %v", i, dContigs[i].MeanCoverage, rContigs[i].MeanCoverage)
		}
	}
}

// assertEulerMatches compares the Eulerian outcome and walk.
func assertEulerMatches(t *testing.T, dense *Graph, ref *MapGraph) {
	t.Helper()
	dWalk, dErr := dense.EulerPath()
	rWalk, rErr := ref.EulerPath()
	if (dErr == nil) != (rErr == nil) {
		t.Fatalf("euler: dense err=%v, map err=%v", dErr, rErr)
	}
	if dErr == nil {
		if len(dWalk) != len(rWalk) {
			t.Fatalf("euler walk: dense %d nodes, map %d", len(dWalk), len(rWalk))
		}
		for i := range dWalk {
			if dWalk[i] != rWalk[i] {
				t.Fatalf("euler walk node %d: dense %v, map %v", i, dWalk[i], rWalk[i])
			}
		}
		if err := dense.ValidateWalk(dWalk); err != nil {
			t.Fatalf("dense walk invalid: %v", err)
		}
	}
}

func TestDenseMatchesMapReference(t *testing.T) {
	for _, shape := range diffShapes {
		for k := 2; k <= 8; k++ {
			t.Run(fmt.Sprintf("%s/k%d", shape.name, k), func(t *testing.T) {
				reads := diffWorkload(shape.seed, shape.genomeLen, shape.readLen, shape.numReads, shape.errRate)
				tbl := kmer.CountReads(reads, k)
				assertGraphsMatch(t, Build(tbl), BuildMap(tbl))
			})
		}
	}
}

// Bits of an insertion mode: how addBoth feeds one entry list to the two
// builders.
const (
	addShuffled   uint8 = 1 << iota // in random order, not ascending
	addDuplicates                   // every fifth k-mer a second time, with another count
	addRounds                       // then two Simplify → AddKmer → finalize rounds
)

// addBoth inserts entries into a dense graph and the map reference in the
// order and multiplicity mode names, querying the dense graph mid-build every
// so often to force finalize + re-dirty cycles, and compares the two: the
// adjacency and Eulerian outcome always, the contigs against MapGraph while
// no k-mer is held twice and against the serial walk otherwise. With
// addRounds it then twice simplifies the dense graph, rebuilds the reference
// from the surviving edges, and adds to both again — removed k-mers coming
// back, nodes reviving, new k-mers landing between old ones.
func addBoth(t *testing.T, k int, entries []kmer.Entry, mode uint8, rng *stats.RNG) {
	t.Helper()
	entries = append([]kmer.Entry(nil), entries...)
	if mode&addDuplicates != 0 {
		for i := 0; i < len(entries); i += 5 {
			entries = append(entries, kmer.Entry{Kmer: entries[i].Kmer, Count: entries[i].Count + 7})
		}
	}
	if mode&addShuffled != 0 {
		for i := len(entries) - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			entries[i], entries[j] = entries[j], entries[i]
		}
	}
	assertMatch := func(dense *Graph, ref *MapGraph) {
		t.Helper()
		assertAdjacencyMatches(t, dense, ref)
		assertEulerMatches(t, dense, ref)
		if mode&addDuplicates == 0 {
			assertContigsMatchMap(t, dense, ref)
		} else {
			assertContigsMatchSerialWalk(t, dense)
		}
	}

	dense, ref := NewGraph(k), NewMapGraph(k)
	for i, e := range entries {
		dense.AddKmer(e.Kmer, e.Count)
		ref.AddKmer(e.Kmer, e.Count)
		if i%97 == 0 {
			if dense.NumNodes() != ref.NumNodes() {
				t.Fatalf("after %d adds: nodes dense %d, map %d", i+1, dense.NumNodes(), ref.NumNodes())
			}
			dense.Contigs()
		}
	}
	assertMatch(dense, ref)
	if mode&addRounds == 0 {
		return
	}

	mask := kmer.Kmer(kmer.Mask(k))
	for round := 0; round < 2; round++ {
		dense.CoverageCutoff(uint32(2 + round))
		dense.Simplify(2*k, 2*k, 10)
		ref = NewMapGraph(k)
		for _, n := range dense.Nodes() {
			for _, e := range dense.Out(n) {
				ref.AddKmer(e.Kmer, e.Count)
			}
		}
		assertMatch(dense, ref)
		// A node with no way out has lost every edge that left it: a third
		// of those come back, heavier. (Found before the first AddKmer, which
		// makes the next query renumber the nodes.)
		var back []kmer.Entry
		for i, e := range entries {
			if i%3 == round && dense.OutDegree(e.Kmer.Prefix(k)) == 0 {
				back = append(back, kmer.Entry{Kmer: e.Kmer, Count: e.Count + 11})
			}
		}
		for _, e := range back {
			dense.AddKmer(e.Kmer, e.Count)
			ref.AddKmer(e.Kmer, e.Count)
		}
		if mode&addDuplicates != 0 || k > 8 {
			// k-mers the graph may well hold already at small k: a second
			// copy is only comparable in the duplicates mode.
			for i := 0; i < 1+len(entries)/8; i++ {
				km := kmer.Kmer(rng.Uint64()) & mask
				dense.AddKmer(km, 4)
				ref.AddKmer(km, 4)
			}
		}
		assertMatch(dense, ref)
	}
}

// TestDenseIncrementalAddMatchesMap drives the AddKmer and re-finalize
// paths: ascending, shuffled and duplicated insertion with queries
// interleaved, then simplification and further insertion, must keep matching
// the map builder — at the smallest k, a middling one, and k = 32, where the
// all-C 31-mer is the largest node there can be, one below the mark the
// merge-join gives an exhausted run.
func TestDenseIncrementalAddMatchesMap(t *testing.T) {
	for _, k := range []int{2, 6, 32} {
		reads := diffWorkload(42, 600, 40, 80, 0.005)
		entries := kmer.CountReads(reads, k).Entries()
		if k == 32 {
			allC := ^kmer.Kmer(0)
			entries = append(entries,
				kmer.Entry{Kmer: allC >> 2, Count: 2}, // C…CT: leaves the all-C node
				kmer.Entry{Kmer: allC &^ 3, Count: 3}, // TC…C: enters it
				kmer.Entry{Kmer: allC, Count: 5},      // C…C: its self-loop, the largest k-mer
			)
			kmer.SortEntries(entries)
		}
		for mode := uint8(0); mode < 8; mode++ {
			t.Run(fmt.Sprintf("k%d/mode%d", k, mode), func(t *testing.T) {
				addBoth(t, k, entries, mode, stats.NewRNG(uint64(100*k)+uint64(mode)))
			})
		}
	}
}

// TestDenseFleuryMatchesMapEuler cross-checks the ID-based Fleury rewrite:
// on an Eulerian graph both dense traversals and the map reference must
// produce valid walks covering every edge.
func TestDenseFleuryMatchesMapEuler(t *testing.T) {
	rng := stats.NewRNG(7)
	for trial := 0; trial < 5; trial++ {
		src := genome.GenerateGenome(120, rng)
		tbl := kmer.NewCountTable(7, 128)
		kmer.Iterate(src, 7, func(km kmer.Kmer) { tbl.Add(km) })
		dense, ref := Build(tbl), BuildMap(tbl)
		dWalk, dErr := dense.FleuryPath()
		_, rErr := ref.EulerPath()
		if (dErr == nil) != (rErr == nil) {
			t.Fatalf("trial %d: dense Fleury err=%v, map Euler err=%v", trial, dErr, rErr)
		}
		if dErr == nil {
			if err := dense.ValidateWalk(dWalk); err != nil {
				t.Fatalf("trial %d: Fleury walk invalid: %v", trial, err)
			}
		}
	}
}

// FuzzDenseVsMap feeds random read sets through both builders — straight
// from the count table, and k-mer by k-mer in every insertion mode of
// addBoth — and requires identical adjacency, contigs and Eulerian outcomes.
func FuzzDenseVsMap(f *testing.F) {
	f.Add("ACGTACGTTT\nGGTTACGTAC", uint8(4), uint8(0))
	f.Add("ACACACACAC", uint8(2), uint8(0))
	f.Add("TTTTTTTTTTTTTTTT\nACGT", uint8(8), uint8(0))
	f.Add("CGTGCGTGCTT", uint8(5), uint8(0))
	f.Add("ACGTACGTTT\nGGTTACGTAC\nCGTGCGTGCTT", uint8(0), addShuffled|addDuplicates|addRounds)
	f.Add("CGTGCGTGCTT\nCGTGCATGCTT\nCGTGCGTGCTT\nGGTGCGTGCTA", uint8(3), addShuffled|addRounds)
	f.Add("CCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCC\nTCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCT", uint8(30), addShuffled)
	f.Add("ACGTTGCAAGGCTTAACCGGTTACGATCGATCGGCTAAGCTT\nCGTTGCAAGGCTTAACCGGTTACGATCGATCGGCTAAGCTTA", uint8(30), addDuplicates|addRounds)
	f.Fuzz(func(t *testing.T, text string, kRaw, mode uint8) {
		k := 2 + int(kRaw)%31 // k ∈ [2, 32]
		if len(text) > 4096 {
			t.Skip("oversized input")
		}
		reads := fuzzReads(text, k)
		if len(reads) == 0 {
			t.Skip("no valid reads")
		}
		tbl := kmer.CountReads(reads, k)
		assertGraphsMatch(t, Build(tbl), BuildMap(tbl))
		addBoth(t, k, tbl.Entries(), mode%8, stats.NewRNG(uint64(len(text))))
	})
}
