package debruijn

import (
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

// Contigs emits the maximal non-branching paths of the graph — the contig
// set of the assembly's stage 2 (Fig. 5a step 2: contigs I, II, III in the
// worked example). A path extends through nodes with in-degree 1 and
// out-degree 1 and stops at any branch, tip, or merge; isolated cycles are
// emitted once each. The walk runs on node IDs with a reusable per-edge
// used mask instead of a per-call map, and each contig's sequence is written
// in one allocation.
func (g *Graph) Contigs() []Contig {
	g.finalize()
	var contigs []Contig
	used := g.scratch.ensureEdges(len(g.edgeKmer))

	internal := func(id int32) bool {
		return g.outDeg[id] == 1 && g.inDeg[id] == 1
	}
	// firstOut returns node id's single live out-edge (callers guarantee
	// out-degree ≥ 1).
	firstOut := func(id int32) int32 {
		return g.firstLiveEdge(id, g.edgeOff[id])
	}

	walk := g.scratch.edgePath[:0]

	// Paths starting at every edge that leaves a non-internal node.
	for _, start := range g.order {
		if internal(start) {
			continue
		}
		for e := g.edgeOff[start]; e < g.edgeOff[start+1]; e++ {
			if g.edgeDead[e] || used[e] {
				continue
			}
			used[e] = true
			walk = append(walk[:0], e)
			cur := g.edgeTo[e]
			for internal(cur) {
				next := firstOut(cur)
				if used[next] {
					break
				}
				used[next] = true
				walk = append(walk, next)
				cur = g.edgeTo[next]
			}
			contigs = append(contigs, g.spellEdgeWalk(start, walk))
		}
	}

	// Isolated cycles where every node is internal.
	for _, start := range g.order {
		if !internal(start) {
			continue
		}
		first := firstOut(start)
		if used[first] {
			continue
		}
		used[first] = true
		walk = append(walk[:0], first)
		cur := g.edgeTo[first]
		for cur != start {
			next := firstOut(cur)
			used[next] = true
			walk = append(walk, next)
			cur = g.edgeTo[next]
		}
		contigs = append(contigs, g.spellEdgeWalk(start, walk))
	}
	g.scratch.edgePath = walk[:0]

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

// spellEdgeWalk converts a start node plus a chain of edge indices into a
// Contig: the start (k-1)-mer followed by one base per edge, written into a
// single pre-sized sequence.
func (g *Graph) spellEdgeWalk(start int32, walk []int32) Contig {
	nodeLen := g.NodeLen()
	seq := genome.NewSequence(nodeLen + len(walk))
	startKm := g.idx.At(start)
	for i := 0; i < nodeLen; i++ {
		seq.SetBase(i, startKm.Base(i))
	}
	var coverage float64
	for i, e := range walk {
		// The appended base is the target node's last base — equivalently
		// the edge k-mer's base k-1.
		seq.SetBase(nodeLen+i, g.edgeKmer[e].Base(g.k-1))
		coverage += float64(g.edgeCount[e])
	}
	return Contig{
		Seq:          seq,
		EdgeCount:    len(walk),
		MeanCoverage: coverage / float64(len(walk)),
	}
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
