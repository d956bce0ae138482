// Package debruijn implements the bidirected de Bruijn graph model of the
// paper's contig-generation stage (Fig. 5c): nodes are (k-1)-mers, each
// distinct k-mer contributes an edge from its prefix to its suffix, and
// contigs are spelled from Eulerian traversals (Fleury, as the paper's
// Traverse procedure names) or from maximal non-branching paths.
//
// Representation: a finalize pass sorts the pending edges by k-mer (a no-op
// for a count table's entries) and merge-joins their prefixes against their
// suffixes, which yields the node list in (k-1)-mer order — a node's ID is
// its rank there — and a CSR adjacency of one record per node (edge offset,
// live in/out degree) and one per edge (k-mer, target ID, count), with edge
// removal via a tombstone bitset. Nothing is hashed: a (k-1)-mer is resolved
// by binary search over the node list. Every traversal (Hierholzer, Fleury,
// contig emission, simplification) walks IDs over these records. The
// Kmer-facing per-node accessors the tests read the graph through live in
// view_test.go, and the map-of-slices builder this replaced survives only as
// the tests' differential reference (MapGraph, mapref_test.go). See
// DESIGN.md §13.
package debruijn

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"pimassembler/internal/kmer"
)

// node is what a walk reads when it stands on a vertex: where its edge
// slots start (they end at the next node's off) and how many live edges
// enter and leave it.
type node struct {
	off     int32
	in, out int32
}

// live reports whether a live edge touches the node: whether it exists.
func (nd node) live() bool { return nd.in|nd.out != 0 }

// edge is what a walk reads when it crosses an edge slot.
type edge struct {
	kmer  kmer.Kmer
	to    int32 // target node ID
	count uint32
}

// bitset is one mark per edge slot: an eighth of a byte each, so the marks
// of a million-edge graph stay in cache under the random accesses of a walk.
type bitset []uint64

func (b bitset) get(i int32) bool { return b[i>>6]>>(uint(i)&63)&1 != 0 }
func (b bitset) set(i int32)      { b[i>>6] |= 1 << (uint(i) & 63) }

// Graph is a de Bruijn graph over (k-1)-mer nodes, stored densely.
//
// A node exists while a live edge touches it, and only then: removing a
// node's last edge removes the node, and AddKmer brings it back. Node IDs are
// ranks in the sorted node list of the last finalize pass, so they are
// renumbered by the first query after an AddKmer; nothing may hold an ID
// across AddKmer.
type Graph struct {
	k int // k-mer (edge) length; nodes are (k-1)-mers

	// Edges accumulated by AddKmer, folded into the CSR records by the next
	// finalize pass.
	pend         []kmer.Entry
	pendUnsorted bool // pend is not in ascending k-mer order

	// Valid while !dirty. kmers[id] is node id's (k-1)-mer, ascending;
	// nodes[id] its record, with one sentinel record closing the last edge
	// segment. A node's slots are sorted by edge k-mer (the deterministic
	// order Out always exposed). Simplification tombstones slots in dead
	// instead of compacting; the next finalize drops tombstones.
	kmers []kmer.Kmer
	nodes []node
	edges []edge
	dead  bitset

	numEdges int // live edges, pending ones included
	dirty    bool

	// The live IDs in ascending order and its inverse, built by SortedIDs
	// and dropped whenever a node comes or goes.
	order, rank []int32

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
	edgeUsed bitset  // per-edge marks (Contigs, ValidateWalk)
	seeds    []int32 // first edge slot of every walk (Contigs)
	// One int32 per edge slot: layout's target IDs while it builds the
	// records, then Contigs' successor slots.
	next []int32
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
func (s *traversalScratch) ensureEdges(m int) bitset {
	words := (m + 63) / 64
	if cap(s.edgeUsed) < words {
		s.edgeUsed = make(bitset, words)
	}
	s.edgeUsed = s.edgeUsed[:words]
	clear(s.edgeUsed)
	return s.edgeUsed
}

// NodeLen returns the node ((k-1)-mer) length.
func (g *Graph) NodeLen() int { return g.k - 1 }

// NewGraph creates an empty graph for k-mers of length k (k ≥ 2).
func NewGraph(k int) *Graph {
	return NewGraphHint(k, 0, 0)
}

// NewGraphHint creates an empty graph with room for edgesHint AddKmer calls.
// nodesHint sizes nothing — the node list is derived from the edges, not
// grown beside them — and remains for the callers that pass it.
func NewGraphHint(k, nodesHint, edgesHint int) *Graph {
	if k < 2 || k > kmer.MaxK {
		panic(fmt.Sprintf("debruijn: k=%d outside [2,%d]", k, kmer.MaxK))
	}
	g := &Graph{k: k}
	if edgesHint > 0 {
		g.pend = make([]kmer.Entry, 0, edgesHint)
	}
	return g
}

// AddKmer inserts the edge for one distinct k-mer with its multiplicity:
// the MEM_insert pair of the DeBruijn procedure (node_1 = k_mer[0..k-2],
// node_2 = k_mer[1..k-1]).
func (g *Graph) AddKmer(km kmer.Kmer, count uint32) {
	if n := len(g.pend); n > 0 && km < g.pend[n-1].Kmer {
		g.pendUnsorted = true
	}
	g.pend = append(g.pend, kmer.Entry{Kmer: km, Count: count})
	g.numEdges++
	g.dirty = true
}

// Build constructs the graph from a counted table, one edge per distinct
// k-mer (frequency kept as edge weight).
func Build(t *kmer.CountTable) *Graph {
	return BuildEntries(t.K(), t.Entries())
}

// BuildEntries constructs the graph with one edge per entry, reading the
// slice in place rather than copying it edge by edge. Entries in ascending
// k-mer order — what CountTable.Entries and FilterMinCount return — are laid out
// as they are; any other order is sorted first, in the caller's slice. The
// graph keeps no reference to entries once it is built.
func BuildEntries(k int, entries []kmer.Entry) *Graph {
	g := NewGraph(k)
	g.pend = entries
	g.pendUnsorted = !slices.IsSortedFunc(entries, func(a, b kmer.Entry) int {
		return cmp.Compare(a.Kmer, b.Kmer)
	})
	g.numEdges = len(entries)
	g.dirty = true
	g.finalize()
	return g
}

// finalize folds the pending AddKmer edges, plus the surviving edge slots of
// an earlier pass, into fresh node and edge records.
func (g *Graph) finalize() {
	if !g.dirty {
		return
	}
	es, unsorted := g.pend, g.pendUnsorted
	if len(g.edges) > 0 {
		// Slot order is by source node, not by k-mer. Survivors go first so
		// the stable sort keeps a re-added k-mer behind its older twin.
		es = make([]kmer.Entry, 0, g.numEdges)
		for i, e := range g.edges {
			if !g.dead.get(int32(i)) {
				es = append(es, kmer.Entry{Kmer: e.kmer, Count: e.count})
			}
		}
		es, unsorted = append(es, g.pend...), true
	}
	if unsorted {
		kmer.SortEntries(es)
	}
	g.layout(es)
	g.pend, g.pendUnsorted = nil, false
	g.dirty = false
}

// layout derives every record from the edges in ascending k-mer order, in
// sequential passes. Base 0 sits in a k-mer's low bits, so the list is
// already grouped by suffix node (km>>2 never decreases, and a run's length
// is that node's in-degree) and its prefix nodes form four ascending runs,
// one per last base. Merging the four prefix runs with the suffix stream
// visits every node once, in (k-1)-mer order: its ID is its rank, its edge
// slots are the run heads equal to it — taken in run order, which is k-mer
// order — and the suffix run equal to it names the edges that target it.
func (g *Graph) layout(es []kmer.Entry) {
	m := len(es)
	nodeBits := 2 * uint(g.k-1)
	nodeMask := kmer.Kmer(kmer.Mask(g.k - 1))
	// Above every (k-1)-mer: those have at most 62 bits.
	const exhausted = ^kmer.Kmer(0)

	// Run b is es[cur[b]:end[b]], head[b] the prefix node at its cursor.
	var cur, end [4]int
	for b := 1; b < 4; b++ {
		cur[b] = sort.Search(m, func(i int) bool { return es[i].Kmer>>nodeBits >= kmer.Kmer(b) })
		end[b-1] = cur[b]
	}
	end[3] = m
	var head [4]kmer.Kmer
	for b := range head {
		head[b] = exhausted
		if cur[b] < end[b] {
			head[b] = es[cur[b]].Kmer & nodeMask
		}
	}
	// The suffix stream is es itself; suffix is the node at its cursor s.
	s, suffix := 0, exhausted
	if m > 0 {
		suffix = es[0].Kmer >> 2
	}

	// A graph has one node more than edges per unbranched path, so a little
	// headroom covers all but the tip-ridden ones, which grow the slices.
	g.kmers = make([]kmer.Kmer, 0, m+m/8+1)
	g.nodes = make([]node, 0, m+m/8+2)
	g.edges = make([]edge, 0, m)
	// target[i] is the node ID edge es[i] leads to, known once the merge
	// reaches its suffix; until then the edge's slot remembers i. The buffer
	// stays in the scratch for Contigs' successor slots.
	if cap(g.scratch.next) < m {
		g.scratch.next = make([]int32, m)
	}
	target := g.scratch.next[:m]
	for {
		n := min(suffix, head[0], head[1], head[2], head[3])
		if n == exhausted {
			break
		}
		id := int32(len(g.kmers))
		nd := node{off: int32(len(g.edges))}
		for suffix == n {
			target[s] = id
			nd.in++
			s++
			suffix = exhausted
			if s < m {
				suffix = es[s].Kmer >> 2
			}
		}
		for b := range head {
			for head[b] == n {
				e := es[cur[b]]
				g.edges = append(g.edges, edge{kmer: e.Kmer, to: int32(cur[b]), count: e.Count})
				cur[b]++
				head[b] = exhausted
				if cur[b] < end[b] {
					head[b] = es[cur[b]].Kmer & nodeMask
				}
			}
		}
		nd.out = int32(len(g.edges)) - nd.off
		g.kmers = append(g.kmers, n)
		g.nodes = append(g.nodes, nd)
	}
	g.nodes = append(g.nodes, node{off: int32(m)})
	for i := range g.edges {
		g.edges[i].to = target[g.edges[i].to]
	}
	g.dead = make(bitset, (m+63)/64)
	g.order, g.rank = nil, nil
}

// span returns node id's edge slots, live and dead, as [lo, hi).
func (g *Graph) span(id int32) (lo, hi int32) {
	return g.nodes[id].off, g.nodes[id+1].off
}

// nodeID resolves a (k-1)-mer to its live node ID.
func (g *Graph) nodeID(n kmer.Kmer) (int32, bool) {
	id, ok := slices.BinarySearch(g.kmers, n)
	if !ok || !g.nodes[id].live() {
		return 0, false
	}
	return int32(id), true
}

// firstLiveEdge returns the first live edge slot at or after e. The caller
// knows there is one: e starts the slots of a node with a live out-edge.
func (g *Graph) firstLiveEdge(e int32) int32 {
	for g.dead.get(e) {
		e++
	}
	return e
}

// NumNodes returns the node count.
func (g *Graph) NumNodes() int {
	g.finalize()
	n := 0
	for _, nd := range g.nodes[:len(g.kmers)] {
		if nd.live() {
			n++
		}
	}
	return n
}

// NumEdges returns the edge count (distinct k-mers).
func (g *Graph) NumEdges() int { return g.numEdges }

// Nodes returns all nodes sorted by value.
func (g *Graph) Nodes() []kmer.Kmer {
	ids := g.SortedIDs()
	out := make([]kmer.Kmer, len(ids))
	for i, id := range ids {
		out[i] = g.kmers[id]
	}
	return out
}

// SortedIDs returns the live node IDs in (k-1)-mer sorted order — the same
// enumeration as Nodes, for ID-indexed consumers (internal/core's graph
// engine). IDs ascend with the (k-1)-mer, so this is every ID until an edge
// removal takes a node away. The slice is owned by the graph; callers must
// not mutate it, and like every ID it is stale after the next AddKmer.
func (g *Graph) SortedIDs() []int32 {
	g.finalize()
	if g.order == nil {
		g.order = make([]int32, 0, len(g.kmers))
		g.rank = make([]int32, len(g.kmers))
		for id := range g.kmers {
			g.rank[id] = -1
			if g.nodes[id].live() {
				g.rank[id] = int32(len(g.order))
				g.order = append(g.order, int32(id))
			}
		}
	}
	return g.order
}

// RankOfID returns id's position within SortedIDs, or -1 for a node no live
// edge touches any more. id must come from this graph since its last AddKmer.
func (g *Graph) RankOfID(id int32) int32 {
	g.SortedIDs()
	return g.rank[id]
}

// EachOutID visits node id's live outgoing edges in the deterministic
// adjacency order.
func (g *Graph) EachOutID(id int32, fn func(to int32, km kmer.Kmer, count uint32)) {
	g.finalize()
	for e, hi := g.span(id); e < hi; e++ {
		if !g.dead.get(e) {
			ed := g.edges[e]
			fn(ed.to, ed.kmer, ed.count)
		}
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

// balanceID classifies the graph's degree balance for an Eulerian traversal
// and returns its start node: the +1 node of a path, the smallest node with
// outgoing edges of a circuit (-1 for an empty one). This is the out/in-degree
// scan of the paper's Traverse procedure, realised in hardware by PIM_Add row
// reductions.
func (g *Graph) balanceID() (BalanceClass, int32) {
	var start int32 = -1
	plus, minus := 0, 0
	for id, nd := range g.nodes[:len(g.kmers)] {
		switch diff := nd.out - nd.in; {
		case diff == 0:
		case diff == 1:
			plus++
			start = int32(id)
		case diff == -1:
			minus++
		default:
			return BalanceNone, -1
		}
	}
	switch {
	case plus == 0 && minus == 0:
		for id, nd := range g.nodes[:len(g.kmers)] {
			if nd.out > 0 {
				return BalanceCircuit, int32(id)
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
	n := len(g.kmers)
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
	for id := int32(0); int(id) < n; id++ {
		for e, hi := g.span(id); e < hi; e++ {
			if g.dead.get(e) {
				continue
			}
			to := g.edges[e].to
			any = true
			touched[id] = true
			touched[to] = true
			ra, rb := find(id), find(to)
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

// String summarises the graph.
func (g *Graph) String() string {
	return fmt.Sprintf("debruijn.Graph{k=%d, nodes=%d, edges=%d}", g.k, g.NumNodes(), g.numEdges)
}
