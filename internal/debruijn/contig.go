package debruijn

import (
	"fmt"
	"io"
	"sort"

	"pimassembler/internal/genome"
)

// Contig is one assembled contiguous sequence with its supporting evidence.
type Contig struct {
	Seq *genome.Sequence
	// EdgeCount is the number of k-mers (graph edges) the contig spells.
	EdgeCount int
	// MeanCoverage is the average multiplicity of the spelled k-mers.
	MeanCoverage float64
}

// WriteContigsFASTA writes a contig set as FASTA records named
// "contig_<index> len=<bases> cov=<mean coverage>": the one rendering every
// front door — cmd/assemble's output file, the service's contigs endpoint —
// emits, so the two stay byte-identical.
func WriteContigsFASTA(w io.Writer, contigs []Contig) error {
	rw := genome.NewRecordWriter(w)
	for i, c := range contigs {
		name := fmt.Sprintf("contig_%d len=%d cov=%.1f", i, c.Seq.Len(), c.MeanCoverage)
		if err := rw.Write(genome.Record{Name: name, Seq: c.Seq}); err != nil {
			return err
		}
	}
	return rw.Flush()
}

// walkLanes is how many contig walks Contigs advances in lock-step. A step
// of a walk is one dependent cache miss — the edge record and successor slot
// of the edge it crosses — and the walks are independent of one another, so
// the lanes keep walkLanes misses in flight where one walk would wait for
// each in turn.
const walkLanes = 32

// spelling accumulates one contig while its walk runs: the first edge
// contributes its whole k-mer (the start node and one base), every later
// edge its last base.
type spelling struct {
	bases    []byte // one base per byte
	coverage float64
}

func (s *spelling) add(k int, ed edge) {
	if len(s.bases) == 0 {
		for i := 0; i < k-1; i++ {
			s.bases = append(s.bases, byte(ed.kmer.Base(i)))
		}
	}
	s.bases = append(s.bases, byte(ed.kmer.Base(k-1)))
	s.coverage += float64(ed.count)
}

// contig packs the spelled walk into a Contig and resets s for the next.
func (s *spelling) contig(k int) Contig {
	seq := genome.NewSequence(len(s.bases))
	for i, b := range s.bases {
		seq.SetBase(i, genome.Base(b))
	}
	edges := len(s.bases) - (k - 1)
	c := Contig{Seq: seq, EdgeCount: edges, MeanCoverage: s.coverage / float64(edges)}
	s.bases, s.coverage = s.bases[:0], 0
	return c
}

// Contigs emits the maximal non-branching paths of the graph — the contig
// set of the assembly's stage 2 (Fig. 5a step 2: contigs I, II, III in the
// worked example). A path extends through nodes with in-degree 1 and
// out-degree 1 and stops at any branch, tip, or merge; isolated cycles are
// emitted once each.
func (g *Graph) Contigs() []Contig {
	g.finalize()
	used := g.scratch.ensureEdges(len(g.edges))

	// A path starts at every live edge that leaves a non-internal node. No
	// two paths share an edge (an internal node is entered by one edge only),
	// so they can be walked in any interleaving.
	seeds := g.scratch.seeds[:0]
	for id, nd := range g.nodes[:len(g.kmers)] {
		if nd.out == 0 || nd.in == 1 && nd.out == 1 {
			continue
		}
		for e, hi := g.span(int32(id)); e < hi; e++ {
			if !g.dead.get(e) {
				seeds = append(seeds, e)
			}
		}
	}
	g.scratch.seeds = seeds
	contigs := make([]Contig, len(seeds))
	walked := g.walkSeeds(seeds, contigs, used, g.successors())

	// Isolated cycles where every node is internal: what the paths left.
	if walked < g.numEdges {
		var sp spelling
		for start, nd := range g.nodes[:len(g.kmers)] {
			if nd.in != 1 || nd.out != 1 {
				continue
			}
			e := g.firstLiveEdge(nd.off)
			if used.get(e) {
				continue
			}
			for {
				used.set(e)
				sp.add(g.k, g.edges[e])
				cur := g.edges[e].to
				if int(cur) == start {
					break
				}
				e = g.firstLiveEdge(g.nodes[cur].off)
			}
			contigs = append(contigs, sp.contig(g.k))
		}
	}

	// Longest first; only equal lengths are compared base by base.
	sort.Slice(contigs, func(a, b int) bool {
		sa, sb := contigs[a].Seq, contigs[b].Seq
		if sa.Len() != sb.Len() {
			return sa.Len() > sb.Len()
		}
		return lettersLess(sa, sb)
	})
	return contigs
}

// lettersLess reports whether a spells a string before b of the same length:
// the order of their String forms, without building them. The 2-bit codes
// are not in letter order (T=00 sorts last), so bases compare by letter.
func lettersLess(a, b *genome.Sequence) bool {
	for i := 0; i < a.Len(); i++ {
		if la, lb := a.Base(i).Letter(), b.Base(i).Letter(); la != lb {
			return la < lb
		}
	}
	return false
}

// successors fills, in one pass over the edge slots, the slot a walk
// crosses after each: next[e] is the one live out-edge of e's target when
// that node is internal (in- and out-degree 1), and -1 where the walk stops.
// It reads node records in slot order, in which the targets run in four
// ascending streams (one per last base), so their misses overlap rather than
// chain; the walk then reads next[e] beside edges[e] and no node record.
func (g *Graph) successors() []int32 {
	next := g.scratch.next[:len(g.edges)]
	for e, ed := range g.edges {
		next[e] = -1
		if nd := g.nodes[ed.to]; nd.in == 1 && nd.out == 1 {
			next[e] = g.firstLiveEdge(nd.off)
		}
	}
	return next
}

// walkSeeds walks the path of every seed edge, leaving seed i's contig in
// contigs[i] and marking the edges it crosses in used, and returns how many
// it crossed. It advances walkLanes paths at a time: every lane's edge
// record and successor slot are loaded before any is looked at, then each
// lane marks and spells its edge and steps to the successor, or, where
// there is none, emits its contig and takes the next seed.
func (g *Graph) walkSeeds(seeds []int32, contigs []Contig, used bitset, next []int32) int {
	type lane struct {
		spelling
		seed int   // index of the path in seeds and contigs
		e    int32 // edge slot to cross next
	}
	var lanes [walkLanes]lane
	active := min(walkLanes, len(seeds))
	for l := 0; l < active; l++ {
		lanes[l].seed, lanes[l].e = l, seeds[l]
	}
	fresh, walked := active, 0
	var eds [walkLanes]edge
	var succ [walkLanes]int32
	for active > 0 {
		for l := 0; l < active; l++ {
			e := lanes[l].e
			eds[l], succ[l] = g.edges[e], next[e]
		}
		walked += active
		for l := 0; l < active; l++ {
			ln := &lanes[l]
			used.set(ln.e)
			ln.add(g.k, eds[l])
			if succ[l] >= 0 {
				ln.e = succ[l]
				continue
			}
			contigs[ln.seed] = ln.contig(g.k)
			if fresh < len(seeds) {
				ln.seed, ln.e = fresh, seeds[fresh]
				fresh++
				continue
			}
			// No seed left: retire the lane by moving the last one here.
			active--
			lanes[l], lanes[active] = lanes[active], lanes[l]
			eds[l], succ[l] = eds[active], succ[active]
			l--
		}
	}
	return walked
}

// N50 computes the N50 statistic of a contig set: the largest length L such
// that contigs of length ≥ L cover at least half the total assembled bases.
func N50(contigs []Contig) int {
	if len(contigs) == 0 {
		return 0
	}
	lengths := make([]int, len(contigs))
	total := 0
	for i, c := range contigs {
		lengths[i] = c.Seq.Len()
		total += c.Seq.Len()
	}
	sort.Sort(sort.Reverse(sort.IntSlice(lengths)))
	acc := 0
	for _, l := range lengths {
		acc += l
		if 2*acc >= total {
			return l
		}
	}
	return lengths[len(lengths)-1]
}

// TotalBases sums contig lengths.
func TotalBases(contigs []Contig) int {
	t := 0
	for _, c := range contigs {
		t += c.Seq.Len()
	}
	return t
}
