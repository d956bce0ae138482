package debruijn

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"

	"pimassembler/internal/genome"
	"pimassembler/internal/kmer"
	"pimassembler/internal/stats"
)

// refContigs is the contig walk as Graph.Contigs ran it before it interleaved
// its walks: one path at a time, the edge slots of a path collected first and
// spelled afterwards. It is the oracle the lane walk is compared against —
// same sequences, edge counts and coverages, in the same order.
func refContigs(g *Graph) []Contig {
	g.finalize()
	var contigs []Contig
	used := make([]bool, len(g.edges))

	internal := func(id int32) bool {
		return g.nodes[id].out == 1 && g.nodes[id].in == 1
	}
	// firstOut returns node id's single live out-edge (callers guarantee
	// out-degree ≥ 1).
	firstOut := func(id int32) int32 {
		return g.firstLiveEdge(g.nodes[id].off)
	}

	var walk []int32

	// Paths starting at every edge that leaves a non-internal node.
	for start := int32(0); int(start) < len(g.kmers); start++ {
		if internal(start) {
			continue
		}
		for e, hi := g.span(start); e < hi; e++ {
			if g.dead.get(e) || used[e] {
				continue
			}
			used[e] = true
			walk = append(walk[:0], e)
			cur := g.edges[e].to
			for internal(cur) {
				next := firstOut(cur)
				if used[next] {
					break
				}
				used[next] = true
				walk = append(walk, next)
				cur = g.edges[next].to
			}
			contigs = append(contigs, refSpellEdgeWalk(g, start, walk))
		}
	}

	// Isolated cycles where every node is internal.
	for start := int32(0); int(start) < len(g.kmers); start++ {
		if !internal(start) {
			continue
		}
		first := firstOut(start)
		if used[first] {
			continue
		}
		used[first] = true
		walk = append(walk[:0], first)
		cur := g.edges[first].to
		for cur != start {
			next := firstOut(cur)
			used[next] = true
			walk = append(walk, next)
			cur = g.edges[next].to
		}
		contigs = append(contigs, refSpellEdgeWalk(g, start, walk))
	}

	// Longest first; only equal lengths are spelled out to break the tie.
	sort.Slice(contigs, func(a, b int) bool {
		sa, sb := contigs[a].Seq, contigs[b].Seq
		if sa.Len() != sb.Len() {
			return sa.Len() > sb.Len()
		}
		return sa.String() < sb.String()
	})
	return contigs
}

// refSpellEdgeWalk converts a start node plus a chain of edge slots into a
// Contig: the start (k-1)-mer followed by one base per edge.
func refSpellEdgeWalk(g *Graph, start int32, walk []int32) Contig {
	nodeLen := g.NodeLen()
	seq := genome.NewSequence(nodeLen + len(walk))
	startKm := g.kmers[start]
	for i := 0; i < nodeLen; i++ {
		seq.SetBase(i, startKm.Base(i))
	}
	var coverage float64
	for i, e := range walk {
		// The appended base is the target node's last base — equivalently
		// the edge k-mer's base k-1.
		seq.SetBase(nodeLen+i, g.edges[e].kmer.Base(g.k-1))
		coverage += float64(g.edges[e].count)
	}
	return Contig{
		Seq:          seq,
		EdgeCount:    len(walk),
		MeanCoverage: coverage / float64(len(walk)),
	}
}

// assertContigsMatchSerialWalk compares Contigs with refContigs and returns
// the contigs.
func assertContigsMatchSerialWalk(t *testing.T, g *Graph) []Contig {
	t.Helper()
	got, want := g.Contigs(), refContigs(g)
	if len(got) != len(want) {
		t.Fatalf("%d contigs, serial walk %d", len(got), len(want))
	}
	edges := 0
	for i := range want {
		if gs, ws := got[i].Seq.String(), want[i].Seq.String(); gs != ws {
			t.Fatalf("contig %d: %q, serial walk %q", i, gs, ws)
		}
		if got[i].EdgeCount != want[i].EdgeCount || got[i].MeanCoverage != want[i].MeanCoverage {
			t.Fatalf("contig %d: %d edges at coverage %v, serial walk %d at %v",
				i, got[i].EdgeCount, got[i].MeanCoverage, want[i].EdgeCount, want[i].MeanCoverage)
		}
		edges += got[i].EdgeCount
	}
	if edges != g.NumEdges() {
		t.Fatalf("contigs spell %d edges, graph has %d", edges, g.NumEdges())
	}
	return got
}

// circular returns s followed by its own first k-1 bases: the read whose
// k-mers close s into a cycle.
func circular(s *genome.Sequence, k int) *genome.Sequence {
	return s.Append(s.Subsequence(0, k-1))
}

// graphOfReads builds a graph with one AddKmer per distinct k-mer of reads.
func graphOfReads(reads []*genome.Sequence, k int) *Graph {
	g := NewGraph(k)
	for _, e := range kmer.CountReads(reads, k).Entries() {
		g.AddKmer(e.Kmer, e.Count)
	}
	return g
}

// TestContigsMatchSerialWalk: the lane walk emits what the serial walk did,
// on the graph shapes that drive each of its branches.
func TestContigsMatchSerialWalk(t *testing.T) {
	for _, k := range []int{2, 5, 16, 32} {
		rng := stats.NewRNG(uint64(7700 + k))
		sample := func(genomeLen, readLen, reads int, errRate float64) []*genome.Sequence {
			ref := genome.GenerateGenome(genomeLen, rng)
			return genome.NewReadSampler(ref, readLen, errRate, rng).Sample(reads)
		}
		// unique reports whether the cases that count contigs can: a random
		// sequence repeats no (k-1)-mer only when those are long.
		unique := k >= 16

		t.Run(fmt.Sprintf("k%d/one path", k), func(t *testing.T) {
			// One seed for walkLanes lanes.
			g := graphOfReads([]*genome.Sequence{genome.GenerateGenome(300, rng)}, k)
			if got := assertContigsMatchSerialWalk(t, g); unique && len(got) != 1 {
				t.Fatalf("%d contigs from one unbranched read, want 1", len(got))
			}
		})
		t.Run(fmt.Sprintf("k%d/three paths", k), func(t *testing.T) {
			var reads []*genome.Sequence
			for i := 0; i < 3; i++ {
				reads = append(reads, genome.GenerateGenome(100+40*i, rng))
			}
			assertContigsMatchSerialWalk(t, graphOfReads(reads, k))
		})
		t.Run(fmt.Sprintf("k%d/one cycle", k), func(t *testing.T) {
			// No seed at all: every node is internal.
			g := graphOfReads([]*genome.Sequence{circular(genome.GenerateGenome(200, rng), k)}, k)
			if got := assertContigsMatchSerialWalk(t, g); unique && (len(got) != 1 || got[0].EdgeCount != 200) {
				t.Fatalf("a 200-base cycle gave %d contigs, the first of %d edges", len(got), got[0].EdgeCount)
			}
		})
		t.Run(fmt.Sprintf("k%d/cycles beside paths", k), func(t *testing.T) {
			var reads []*genome.Sequence
			for i := 0; i < 5; i++ {
				reads = append(reads, circular(genome.GenerateGenome(60+7*i, rng), k))
			}
			reads = append(reads, sample(2_000, 80, 100, 0)...)
			got := assertContigsMatchSerialWalk(t, graphOfReads(reads, k))
			if unique && len(got) < 6 {
				t.Fatalf("%d contigs from five cycles and a genome, want at least 6", len(got))
			}
		})
		t.Run(fmt.Sprintf("k%d/tombstones", k), func(t *testing.T) {
			g := graphOfReads(sample(3_000, 90, 700, 0.01), k)
			before := g.NumEdges()
			assertContigsMatchSerialWalk(t, g)
			g.Simplify(2*k, 2*k, 10)
			assertContigsMatchSerialWalk(t, g)
			g.CoverageCutoff(3)
			assertContigsMatchSerialWalk(t, g)
			if unique && g.NumEdges() == before {
				t.Fatal("nothing was removed, the tombstone case is untested")
			}
		})
		t.Run(fmt.Sprintf("k%d/low coverage", k), func(t *testing.T) {
			// Thousands of short unitigs: every lane is refilled hundreds of
			// times, and the lanes run dry one by one at the end.
			got := assertContigsMatchSerialWalk(t, graphOfReads(sample(600_000, 101, 4_500, 0), k))
			if unique && len(got) < 1_000 {
				t.Fatalf("%d contigs, want the lane-refill case to have thousands", len(got))
			}
		})
		for _, c := range []struct {
			name  string
			paths int
		}{{"as many paths as lanes", walkLanes}, {"one path more than lanes", walkLanes + 1}} {
			t.Run(fmt.Sprintf("k%d/%s", k, c.name), func(t *testing.T) {
				// Every lane gets a seed; one more path is one refill.
				var reads []*genome.Sequence
				for i := 0; i < c.paths; i++ {
					reads = append(reads, genome.GenerateGenome(70, rng))
				}
				g := graphOfReads(reads, k)
				assertContigsMatchSerialWalk(t, g)
				if unique && len(g.scratch.seeds) != c.paths {
					t.Fatalf("%d seeds from %d unbranched reads", len(g.scratch.seeds), c.paths)
				}
			})
		}
		t.Run(fmt.Sprintf("k%d/dead first out-slot", k), func(t *testing.T) {
			// Read b leaves read a's node x by a second out-edge; tombstoning
			// x's first slot leaves x internal, so the edge into x has its
			// successor in x's second slot.
			a := genome.GenerateGenome(120, rng)
			x := a.Subsequence(50, k-1)
			fork := genome.NewSequence(1)
			fork.SetBase(0, a.Base(50+k-1).Complement())
			b := x.Append(fork).Append(genome.GenerateGenome(60, rng))
			g := graphOfReads([]*genome.Sequence{a, b}, k)
			g.finalize()
			id, ok := g.nodeID(kmer.MustParse(x.String()))
			if !ok {
				t.Fatal("node x is missing")
			}
			lo := g.nodes[id].off
			g.removeEdgeAt(id, lo)
			if nd := g.nodes[id]; unique && (nd.in != 1 || nd.out != 1 || g.firstLiveEdge(lo) != lo+1) {
				t.Fatalf("x has in %d, out %d, first live slot %d of %d: not the dead-first-slot shape",
					nd.in, nd.out, g.firstLiveEdge(lo)-lo, nd.out)
			}
			assertContigsMatchSerialWalk(t, g)
		})
		t.Run(fmt.Sprintf("k%d/repeated calls and a re-finalize", k), func(t *testing.T) {
			// The successor slots sit in a buffer the graph keeps and the
			// next layout reuses: no call may see an earlier one's.
			ref := genome.GenerateGenome(3_000, rng)
			g := graphOfReads(genome.NewReadSampler(ref, 90, 0.01, rng).Sample(300), k)
			first := assertContigsMatchSerialWalk(t, g)
			again := assertContigsMatchSerialWalk(t, g)
			for i := range first {
				if !first[i].Seq.Equal(again[i].Seq) {
					t.Fatalf("contig %d changed between two calls", i)
				}
			}
			had := map[kmer.Kmer]bool{}
			for _, ed := range g.edges {
				had[ed.kmer] = true
			}
			g.Simplify(2*k, 2*k, 10)
			buffer := cap(g.scratch.next)
			// One more erroneous read: its new k-mers branch off old paths.
			added := 0
			for _, e := range kmer.CountReads(genome.NewReadSampler(ref, 90, 0.03, rng).Sample(1), k).Entries() {
				if !had[e.Kmer] {
					g.AddKmer(e.Kmer, e.Count)
					added++
				}
			}
			assertContigsMatchSerialWalk(t, g)
			if unique && (added == 0 || cap(g.scratch.next) != buffer) {
				t.Fatalf("%d k-mers added, buffer of %d slots now %d: the reuse case is untested", added, buffer, cap(g.scratch.next))
			}
			assertContigsMatchSerialWalk(t, g)
		})
	}
}

// TestContigTieBreakMatchesStringOrder: contigs of equal length sort as
// their String forms do, with no allocation. Many share a long prefix, so
// the comparison runs to their last bases, and some are equal.
func TestContigTieBreakMatchesStringOrder(t *testing.T) {
	rng := stats.NewRNG(7790)
	for _, n := range []int{1, 3, 4, 37} {
		var seqs []*genome.Sequence
		stem := genome.GenerateGenome(n, rng)
		for i := 0; i < 400; i++ {
			s := genome.GenerateGenome(n, rng)
			if i%2 == 0 {
				// Keep a random-length prefix of the stem.
				keep := rng.Intn(n + 1)
				for j := 0; j < keep; j++ {
					s.SetBase(j, stem.Base(j))
				}
			}
			seqs = append(seqs, s)
		}
		got := slices.Clone(seqs)
		sort.SliceStable(got, func(a, b int) bool { return lettersLess(got[a], got[b]) })
		want := slices.Clone(seqs)
		sort.SliceStable(want, func(a, b int) bool { return want[a].String() < want[b].String() })
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("length %d: position %d holds %s, String order %s", n, i, got[i], want[i])
			}
		}
		if allocs := testing.AllocsPerRun(10, func() { lettersLess(seqs[0], seqs[1]) }); allocs != 0 {
			t.Fatalf("length %d: %v allocations per comparison", n, allocs)
		}
	}
}

// fuzzReads parses text as newline-separated reads, keeping those that are
// valid DNA of at least k bases.
func fuzzReads(text string, k int) []*genome.Sequence {
	var reads []*genome.Sequence
	start := 0
	for i := 0; i <= len(text); i++ {
		if i == len(text) || text[i] == '\n' {
			if i > start {
				if s, err := genome.FromString(text[start:i]); err == nil && s.Len() >= k {
					reads = append(reads, s)
				}
			}
			start = i + 1
		}
	}
	return reads
}

// FuzzContigsMatchSerialWalk feeds random read sets — as they are or each
// closed into a cycle, whole or thinned by a coverage cutoff and the
// simplification passes — through the lane walk and the serial walk.
func FuzzContigsMatchSerialWalk(f *testing.F) {
	f.Add("ACGTACGTTT\nGGTTACGTAC", uint8(1), false, uint8(0))
	f.Add("ACACACACAC", uint8(0), true, uint8(0))
	f.Add("ACGGTCA\nTTGACCA\nGGATCCA", uint8(1), true, uint8(0))
	f.Add("CGTGCGTGCTT\nCGTGCGTGCTT\nCGTGCATGCTT", uint8(1), false, uint8(2))
	f.Add("ACGTTGCAAGGCTTAACCGGTTACGATCGATCGGCTAAGCTT", uint8(3), true, uint8(1))
	f.Add("ACGTTGCAAGGCTTAACCGGTTACGATCGATCGGCTAAGCTT\nCGTTGCAAGGCTTAACCGGTTACGATCGATCGGCTAAGCTTA", uint8(2), false, uint8(2))
	f.Fuzz(func(t *testing.T, text string, kRaw uint8, cycles bool, cutoff uint8) {
		k := []int{2, 5, 16, 32}[kRaw%4]
		if len(text) > 4096 {
			t.Skip("oversized input")
		}
		reads := fuzzReads(text, k)
		if len(reads) == 0 {
			t.Skip("no valid reads")
		}
		if cycles {
			for i, r := range reads {
				reads[i] = circular(r, k)
			}
		}
		g := graphOfReads(reads, k)
		assertContigsMatchSerialWalk(t, g)
		if cutoff %= 4; cutoff > 1 {
			g.CoverageCutoff(uint32(cutoff))
			assertContigsMatchSerialWalk(t, g)
		}
		g.Simplify(2*k, 2*k, 10)
		assertContigsMatchSerialWalk(t, g)
	})
}

// TestWriteContigsFASTA pins the record format both front doors serve: the
// header fields, one-decimal coverage, 70-column wrapping, and a write error
// passed on.
func TestWriteContigsFASTA(t *testing.T) {
	contigs := []Contig{
		{Seq: genome.MustFromString(strings.Repeat("ACGT", 18)), EdgeCount: 60, MeanCoverage: 12.345},
		{Seq: genome.MustFromString("GATTACA"), EdgeCount: 1, MeanCoverage: 1},
	}
	var buf strings.Builder
	if err := WriteContigsFASTA(&buf, contigs); err != nil {
		t.Fatal(err)
	}
	want := ">contig_0 len=72 cov=12.3\n" + strings.Repeat("ACGT", 18)[:70] + "\nGT\n" +
		">contig_1 len=7 cov=1.0\nGATTACA\n"
	if buf.String() != want {
		t.Fatalf("got\n%s\nwant\n%s", buf.String(), want)
	}
	if err := WriteContigsFASTA(failingWriter{}, contigs); err == nil {
		t.Fatal("a failing writer's error was dropped")
	}
}

type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }
