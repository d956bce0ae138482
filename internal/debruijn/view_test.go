package debruijn

import (
	"pimassembler/internal/genome"
	"pimassembler/internal/kmer"
)

// The Kmer-facing view of a Graph: the per-node accessors and the passes the
// tests use to inspect a graph, to build a reference walk's sequence and to
// tombstone edges. Production code walks node IDs (EachOutID, SortedIDs).

// Edge is one de Bruijn edge: the k-mer it was built from, the node it
// leads to, and the observed multiplicity (hash-table count).
type Edge struct {
	Kmer  kmer.Kmer
	To    kmer.Kmer // suffix node
	Count uint32
}

// OutDegree returns the out-degree of node n.
func (g *Graph) OutDegree(n kmer.Kmer) int {
	g.finalize()
	id, ok := g.nodeID(n)
	if !ok {
		return 0
	}
	return int(g.nodes[id].out)
}

// InDegree returns the in-degree of node n.
func (g *Graph) InDegree(n kmer.Kmer) int {
	g.finalize()
	id, ok := g.nodeID(n)
	if !ok {
		return 0
	}
	return int(g.nodes[id].in)
}

// Out returns the outgoing edges of n in deterministic (k-mer sorted) order.
func (g *Graph) Out(n kmer.Kmer) []Edge {
	g.finalize()
	id, ok := g.nodeID(n)
	if !ok {
		return nil
	}
	out := make([]Edge, 0, g.nodes[id].out)
	g.EachOutID(id, func(to int32, km kmer.Kmer, count uint32) {
		out = append(out, Edge{Kmer: km, To: g.kmers[to], Count: count})
	})
	return out
}

// HasNode reports whether n exists.
func (g *Graph) HasNode(n kmer.Kmer) bool {
	g.finalize()
	_, ok := g.nodeID(n)
	return ok
}

// Balance inspects degree balance and returns the class plus the start node
// for a traversal (the +1 node for a path; the smallest node with outgoing
// edges for a circuit). This is the out/in-degree scan of the paper's
// Traverse procedure, realised in hardware by PIM_Add row reductions.
func (g *Graph) Balance() (BalanceClass, kmer.Kmer) {
	g.finalize()
	class, start := g.balanceID()
	if class == BalanceNone || start < 0 {
		return class, 0
	}
	return class, g.kmers[start]
}

// Spell converts a node walk (sequence of (k-1)-mers where consecutive
// nodes overlap by k-2) into a DNA sequence.
func (g *Graph) Spell(walk []kmer.Kmer) *genome.Sequence {
	if len(walk) == 0 {
		return genome.NewSequence(0)
	}
	nodeLen := g.NodeLen()
	seq := genome.NewSequence(nodeLen + len(walk) - 1)
	for i := 0; i < nodeLen; i++ {
		seq.SetBase(i, walk[0].Base(i))
	}
	for i, n := range walk[1:] {
		seq.SetBase(nodeLen+i, n.LastBase(nodeLen))
	}
	return seq
}

// CoverageCutoff removes every edge observed fewer than min times —
// Velvet's -cov_cutoff pass. At typical sequencing depth true k-mers appear
// ~coverage times while error k-mers appear once or twice, so a small
// cutoff removes the error mass that topology-only passes cannot reach
// (error arms braided into other error arms). Returns edges removed.
func (g *Graph) CoverageCutoff(min uint32) int {
	g.finalize()
	removed := 0
	for id := int32(0); int(id) < len(g.kmers); id++ {
		for e, hi := g.span(id); e < hi; e++ {
			if g.edges[e].count < min && g.removeEdgeAt(id, e) {
				removed++
			}
		}
	}
	return removed
}
