// Package debruijn implements the bidirected de Bruijn graph model of the
// paper's contig-generation stage (Fig. 5c): nodes are (k-1)-mers, each
// distinct k-mer contributes an edge from its prefix to its suffix, and
// contigs are spelled from Eulerian traversals (Fleury, as the paper's
// Traverse procedure names) or from maximal non-branching paths.
//
// Representation: nodes are interned into dense int32 IDs by a kmer.Index
// and the adjacency is CSR-style flat arrays (edge offsets plus parallel
// edge-target/k-mer/count arrays) built in a finalize pass, with per-node
// in/out degrees as []int32 and edge removal via tombstones. Every traversal
// (Hierholzer, Fleury, contig emission, simplification) walks IDs over these
// arrays; Kmer-facing accessors are preserved at the API boundary. The
// map-of-slices builder this replaced survives only as the tests'
// differential reference (MapGraph, mapref_test.go). See DESIGN.md §13.
package debruijn

import (
	"fmt"

	"pimassembler/internal/genome"
	"pimassembler/internal/kmer"
)

// Edge is one de Bruijn edge: the k-mer it was built from, the node it
// leads to, and the observed multiplicity (hash-table count).
type Edge struct {
	Kmer  kmer.Kmer
	To    kmer.Kmer // suffix node
	Count uint32
}

// Graph is a de Bruijn graph over (k-1)-mer nodes, stored densely: node IDs
// from a kmer.Index, CSR adjacency, flat degree vectors.
type Graph struct {
	k   int         // k-mer (edge) length; nodes are (k-1)-mers
	idx *kmer.Index // (k-1)-mer -> dense node ID, in first-insertion order

	// Edges accumulated by AddKmer, folded into the CSR arrays by the next
	// finalize pass.
	pendFrom  []int32
	pendTo    []int32
	pendKmer  []kmer.Kmer
	pendCount []uint32

	// CSR adjacency, valid while !dirty: node i owns edge slots
	// edgeOff[i]..edgeOff[i+1], sorted by edge k-mer (the deterministic
	// order Out always exposed). Simplification tombstones slots via
	// edgeDead instead of compacting; the next finalize drops tombstones.
	edgeOff   []int32
	edgeTo    []int32
	edgeKmer  []kmer.Kmer
	edgeCount []uint32
	edgeDead  []bool

	inDeg  []int32 // live in-degree per node ID
	outDeg []int32 // live out-degree per node ID
	alive  []bool  // false once pruneIsolated dropped the node
	order  []int32 // alive node IDs sorted by (k-1)-mer value
	rank   []int32 // node ID -> position in order (-1 when pruned)
	edges  int     // live edge count
	dirty  bool

	scratch traversalScratch
}

// traversalScratch holds the reusable per-traversal buffers that used to be
// allocated as fresh maps on every call. A Graph (and hence its scratch) is
// not safe for concurrent use.
type traversalScratch struct {
	cursor   []int32 // per-node next-edge cursor (Hierholzer)
	stack    []int32 // DFS / Hierholzer stack
	walk     []int32 // traversal output before Kmer conversion
	seen     []bool  // per-node visit marks
	parent   []int32 // union-find parents (EdgeConnected)
	edgeUsed []bool  // per-edge marks (Contigs, ValidateWalk)
	edgePath []int32 // edge-index path buffer (simplify walks)
}

// ensureNodes sizes the per-node scratch for n nodes.
func (s *traversalScratch) ensureNodes(n int) {
	if cap(s.cursor) < n {
		s.cursor = make([]int32, n)
		s.seen = make([]bool, n)
		s.parent = make([]int32, n)
	}
	s.cursor = s.cursor[:n]
	s.seen = s.seen[:n]
	s.parent = s.parent[:n]
}

// ensureEdges returns the per-edge mark buffer, cleared, for m edges.
func (s *traversalScratch) ensureEdges(m int) []bool {
	if cap(s.edgeUsed) < m {
		s.edgeUsed = make([]bool, m)
	}
	s.edgeUsed = s.edgeUsed[:m]
	for i := range s.edgeUsed {
		s.edgeUsed[i] = false
	}
	return s.edgeUsed
}

// K returns the edge (k-mer) length.
func (g *Graph) K() int { return g.k }

// NodeLen returns the node ((k-1)-mer) length.
func (g *Graph) NodeLen() int { return g.k - 1 }

// NewGraph creates an empty graph for k-mers of length k (k ≥ 2).
func NewGraph(k int) *Graph {
	return NewGraphHint(k, 0, 0)
}

// NewGraphHint creates an empty graph pre-sized for about nodesHint nodes
// and edgesHint edges — the arena-style allocation graph construction from a
// count table uses so the build path neither rehashes nor regrows.
func NewGraphHint(k, nodesHint, edgesHint int) *Graph {
	if k < 2 || k > kmer.MaxK {
		panic(fmt.Sprintf("debruijn: k=%d outside [2,%d]", k, kmer.MaxK))
	}
	g := &Graph{k: k, idx: kmer.NewIndex(k-1, nodesHint)}
	if edgesHint > 0 {
		g.pendFrom = make([]int32, 0, edgesHint)
		g.pendTo = make([]int32, 0, edgesHint)
		g.pendKmer = make([]kmer.Kmer, 0, edgesHint)
		g.pendCount = make([]uint32, 0, edgesHint)
	}
	return g
}

// AddKmer inserts the edge for one distinct k-mer with its multiplicity:
// the MEM_insert pair of the DeBruijn procedure (node_1 = k_mer[0..k-2],
// node_2 = k_mer[1..k-1]).
func (g *Graph) AddKmer(km kmer.Kmer, count uint32) {
	from := g.idx.Intern(km.Prefix(g.k))
	to := g.idx.Intern(km.Suffix(g.k))
	g.pendFrom = append(g.pendFrom, from)
	g.pendTo = append(g.pendTo, to)
	g.pendKmer = append(g.pendKmer, km)
	g.pendCount = append(g.pendCount, count)
	g.edges++
	g.dirty = true
}

// Build constructs the graph from a k-mer counter — the serial CountTable
// or the hash-partitioned parallel table alike — inserting each distinct
// k-mer once (frequency kept as edge weight). Insertion order does not
// matter — finalize sorts every adjacency segment by k-mer — so the table
// is streamed unsorted rather than paying Entries' sort.
func Build(t kmer.Counter) *Graph {
	g := NewGraphHint(t.K(), t.Len()+1, t.Len())
	t.Each(func(km kmer.Kmer, count uint32) bool {
		g.AddKmer(km, count)
		return true
	})
	g.finalize()
	return g
}

// finalize folds pending AddKmer edges (plus surviving CSR edges) into fresh
// CSR arrays: a counting sort by source node, then a per-segment sort by
// edge k-mer for the deterministic adjacency order every traversal assumes.
func (g *Graph) finalize() {
	if !g.dirty {
		return
	}
	n := g.idx.Len()

	// The edges to lay out: the pending batch as it stands on a first build,
	// otherwise the surviving CSR slots followed by the pending batch.
	from, to, kms, counts := g.pendFrom, g.pendTo, g.pendKmer, g.pendCount
	if len(g.edgeKmer) > 0 {
		from = make([]int32, 0, g.edges)
		to = make([]int32, 0, g.edges)
		kms = make([]kmer.Kmer, 0, g.edges)
		counts = make([]uint32, 0, g.edges)
		for id := 0; id+1 < len(g.edgeOff); id++ {
			for e := g.edgeOff[id]; e < g.edgeOff[id+1]; e++ {
				if g.edgeDead[e] {
					continue
				}
				from = append(from, int32(id))
				to = append(to, g.edgeTo[e])
				kms = append(kms, g.edgeKmer[e])
				counts = append(counts, g.edgeCount[e])
			}
		}
		from = append(from, g.pendFrom...)
		to = append(to, g.pendTo...)
		kms = append(kms, g.pendKmer...)
		counts = append(counts, g.pendCount...)
	}

	// Aliveness: nodes stay pruned unless an edge touches them again; newly
	// interned nodes are alive.
	alive := make([]bool, n)
	for id := range alive {
		alive[id] = id >= len(g.alive) || g.alive[id]
	}
	for i := range g.pendFrom {
		alive[g.pendFrom[i]] = true
		alive[g.pendTo[i]] = true
	}

	// Counting sort by source node into the CSR layout.
	g.outDeg = make([]int32, n)
	g.inDeg = make([]int32, n)
	for i := range from {
		g.outDeg[from[i]]++
		g.inDeg[to[i]]++
	}
	g.edgeOff = make([]int32, n+1)
	for id := 0; id < n; id++ {
		g.edgeOff[id+1] = g.edgeOff[id] + g.outDeg[id]
	}
	pos := append([]int32(nil), g.edgeOff[:n]...)
	g.edgeTo = make([]int32, len(from))
	g.edgeKmer = make([]kmer.Kmer, len(from))
	g.edgeCount = make([]uint32, len(from))
	for i := range from {
		p := pos[from[i]]
		pos[from[i]]++
		g.edgeTo[p] = to[i]
		g.edgeKmer[p] = kms[i]
		g.edgeCount[p] = counts[i]
	}
	g.edgeDead = make([]bool, len(from))

	// Sort each node's segment by edge k-mer (out-degree is at most 4 for
	// distinct k-mers, so insertion sort is exact and allocation-free).
	for id := 0; id < n; id++ {
		lo, hi := g.edgeOff[id], g.edgeOff[id+1]
		for i := lo + 1; i < hi; i++ {
			for j := i; j > lo && g.edgeKmer[j] < g.edgeKmer[j-1]; j-- {
				g.edgeKmer[j], g.edgeKmer[j-1] = g.edgeKmer[j-1], g.edgeKmer[j]
				g.edgeTo[j], g.edgeTo[j-1] = g.edgeTo[j-1], g.edgeTo[j]
				g.edgeCount[j], g.edgeCount[j-1] = g.edgeCount[j-1], g.edgeCount[j]
			}
		}
	}

	g.alive = alive
	g.sortOrder()
	g.pendFrom, g.pendTo, g.pendKmer, g.pendCount = nil, nil, nil, nil
	g.dirty = false
}

// sortOrder recomputes the alive-node enumeration in (k-1)-mer order: one
// radix sort over (node, ID) pairs. Interned nodes are distinct, so the
// order is total.
func (g *Graph) sortOrder() {
	pairs := make([]kmer.Entry, 0, g.idx.Len())
	for id, alive := range g.alive {
		if alive {
			pairs = append(pairs, kmer.Entry{Kmer: g.idx.At(int32(id)), Count: uint32(id)})
		}
	}
	kmer.SortEntries(pairs)
	g.order = g.order[:0]
	for _, p := range pairs {
		g.order = append(g.order, int32(p.Count))
	}
	g.rebuildRank()
}

// rebuildRank recomputes the inverse of order.
func (g *Graph) rebuildRank() {
	n := g.idx.Len()
	if cap(g.rank) < n {
		g.rank = make([]int32, n)
	}
	g.rank = g.rank[:n]
	for i := range g.rank {
		g.rank[i] = -1
	}
	for i, id := range g.order {
		g.rank[id] = int32(i)
	}
}

// nodeID resolves a (k-1)-mer to its live node ID.
func (g *Graph) nodeID(n kmer.Kmer) (int32, bool) {
	id, ok := g.idx.Lookup(n)
	if !ok || !g.alive[id] {
		return 0, false
	}
	return id, true
}

// firstLiveEdge returns the first live edge slot of node id at or after e,
// or g.edgeOff[id+1] when the segment is exhausted.
func (g *Graph) firstLiveEdge(id int32, e int32) int32 {
	hi := g.edgeOff[id+1]
	for e < hi && g.edgeDead[e] {
		e++
	}
	return e
}

// NumNodes returns the node count.
func (g *Graph) NumNodes() int {
	g.finalize()
	return len(g.order)
}

// NumEdges returns the edge count (distinct k-mers).
func (g *Graph) NumEdges() int { return g.edges }

// OutDegree returns the out-degree of node n.
func (g *Graph) OutDegree(n kmer.Kmer) int {
	g.finalize()
	id, ok := g.nodeID(n)
	if !ok {
		return 0
	}
	return int(g.outDeg[id])
}

// InDegree returns the in-degree of node n.
func (g *Graph) InDegree(n kmer.Kmer) int {
	g.finalize()
	id, ok := g.nodeID(n)
	if !ok {
		return 0
	}
	return int(g.inDeg[id])
}

// Out returns the outgoing edges of n in deterministic (k-mer sorted) order.
func (g *Graph) Out(n kmer.Kmer) []Edge {
	g.finalize()
	id, ok := g.nodeID(n)
	if !ok {
		return nil
	}
	out := make([]Edge, 0, g.outDeg[id])
	for e := g.edgeOff[id]; e < g.edgeOff[id+1]; e++ {
		if g.edgeDead[e] {
			continue
		}
		out = append(out, Edge{Kmer: g.edgeKmer[e], To: g.idx.At(g.edgeTo[e]), Count: g.edgeCount[e]})
	}
	return out
}

// Nodes returns all nodes sorted by value.
func (g *Graph) Nodes() []kmer.Kmer {
	g.finalize()
	out := make([]kmer.Kmer, len(g.order))
	for i, id := range g.order {
		out[i] = g.idx.At(id)
	}
	return out
}

// HasNode reports whether n exists.
func (g *Graph) HasNode(n kmer.Kmer) bool {
	g.finalize()
	_, ok := g.nodeID(n)
	return ok
}

// SortedIDs returns the live node IDs in (k-1)-mer sorted order — the same
// enumeration as Nodes, for ID-indexed consumers (internal/core's graph
// engine). The slice is owned by the graph; callers must not mutate it.
func (g *Graph) SortedIDs() []int32 {
	g.finalize()
	return g.order
}

// RankOfID returns id's position within SortedIDs, or -1 for pruned nodes.
func (g *Graph) RankOfID(id int32) int32 {
	g.finalize()
	return g.rank[id]
}

// EachOutID visits node id's live outgoing edges in the deterministic
// adjacency order, without materialising an []Edge.
func (g *Graph) EachOutID(id int32, fn func(to int32, km kmer.Kmer, count uint32)) {
	g.finalize()
	for e := g.edgeOff[id]; e < g.edgeOff[id+1]; e++ {
		if g.edgeDead[e] {
			continue
		}
		fn(g.edgeTo[e], g.edgeKmer[e], g.edgeCount[e])
	}
}

// BalanceClass classifies the graph for Eulerian traversal.
type BalanceClass int

const (
	// BalanceCircuit: every node balanced — an Eulerian circuit exists
	// (given connectivity).
	BalanceCircuit BalanceClass = iota
	// BalancePath: exactly one node with out-in = +1 (start) and one with
	// in-out = +1 (end) — an Eulerian path exists (given connectivity).
	BalancePath
	// BalanceNone: no Eulerian traversal covers all edges.
	BalanceNone
)

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
	return class, g.idx.At(start)
}

// balanceID is Balance over node IDs; start is -1 for an empty circuit.
func (g *Graph) balanceID() (BalanceClass, int32) {
	var start int32 = -1
	plus, minus := 0, 0
	for _, id := range g.order {
		switch diff := g.outDeg[id] - g.inDeg[id]; {
		case diff == 0:
		case diff == 1:
			plus++
			start = id
		case diff == -1:
			minus++
		default:
			return BalanceNone, -1
		}
	}
	switch {
	case plus == 0 && minus == 0:
		for _, id := range g.order {
			if g.outDeg[id] > 0 {
				return BalanceCircuit, id
			}
		}
		return BalanceCircuit, -1
	case plus == 1 && minus == 1:
		return BalancePath, start
	default:
		return BalanceNone, -1
	}
}

// EdgeConnected reports whether all edges lie in one weakly connected
// component (isolated nodes are ignored) — the connectivity half of the
// Eulerian existence condition. Union-find over the flat node-ID range with
// reusable parent/seen scratch.
func (g *Graph) EdgeConnected() bool {
	g.finalize()
	n := g.idx.Len()
	g.scratch.ensureNodes(n)
	parent, touched := g.scratch.parent, g.scratch.seen
	for i := 0; i < n; i++ {
		parent[i] = int32(i)
		touched[i] = false
	}
	var find func(int32) int32
	find = func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	any := false
	for id := 0; id+1 < len(g.edgeOff); id++ {
		for e := g.edgeOff[id]; e < g.edgeOff[id+1]; e++ {
			if g.edgeDead[e] {
				continue
			}
			any = true
			touched[id] = true
			touched[g.edgeTo[e]] = true
			ra, rb := find(int32(id)), find(g.edgeTo[e])
			if ra != rb {
				parent[ra] = rb
			}
		}
	}
	if !any {
		return true
	}
	var root int32 = -1
	for id := 0; id < n; id++ {
		if !touched[id] {
			continue
		}
		r := find(int32(id))
		if root == -1 {
			root = r
			continue
		}
		if r != root {
			return false
		}
	}
	return true
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

// String summarises the graph.
func (g *Graph) String() string {
	return fmt.Sprintf("debruijn.Graph{k=%d, nodes=%d, edges=%d}", g.k, g.NumNodes(), g.edges)
}
