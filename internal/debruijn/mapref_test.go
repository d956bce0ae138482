package debruijn

import (
	"fmt"
	"sort"

	"pimassembler/internal/genome"
	"pimassembler/internal/kmer"
)

// MapGraph is the retained map-of-slices de Bruijn builder: the
// representation Graph used before the dense ID/CSR refactor
// (DESIGN.md §13), kept verbatim as the differential reference. The
// dense-vs-map test suite and fuzz target pin Graph's contigs and Eulerian
// walks byte-identical to this builder. It lives in a _test file: it is an
// oracle, not a production path.
type MapGraph struct {
	k     int
	adj   map[kmer.Kmer][]Edge
	inDeg map[kmer.Kmer]int
	edges int
}

// NewMapGraph creates an empty map-based graph for k-mers of length k.
func NewMapGraph(k int) *MapGraph {
	if k < 2 || k > kmer.MaxK {
		panic(fmt.Sprintf("debruijn: k=%d outside [2,%d]", k, kmer.MaxK))
	}
	return &MapGraph{
		k:     k,
		adj:   make(map[kmer.Kmer][]Edge),
		inDeg: make(map[kmer.Kmer]int),
	}
}

// BuildMap constructs the map-based graph from a counted table.
func BuildMap(t *kmer.CountTable) *MapGraph {
	g := NewMapGraph(t.K())
	for _, e := range t.Entries() {
		g.AddKmer(e.Kmer, e.Count)
	}
	return g
}

// AddKmer inserts the edge for one distinct k-mer with its multiplicity.
func (g *MapGraph) AddKmer(km kmer.Kmer, count uint32) {
	from := km.Prefix(g.k)
	to := km.Suffix(g.k)
	g.adj[from] = append(g.adj[from], Edge{Kmer: km, To: to, Count: count})
	if _, ok := g.adj[to]; !ok {
		g.adj[to] = nil
	}
	g.inDeg[to]++
	if _, ok := g.inDeg[from]; !ok {
		g.inDeg[from] = 0
	}
	g.edges++
}

// NumNodes returns the node count.
func (g *MapGraph) NumNodes() int { return len(g.adj) }

// NumEdges returns the edge count.
func (g *MapGraph) NumEdges() int { return g.edges }

// NodeLen returns the node ((k-1)-mer) length.
func (g *MapGraph) NodeLen() int { return g.k - 1 }

// Out returns the outgoing edges of n in deterministic (k-mer sorted) order.
func (g *MapGraph) Out(n kmer.Kmer) []Edge {
	out := append([]Edge(nil), g.adj[n]...)
	sort.Slice(out, func(a, b int) bool { return out[a].Kmer < out[b].Kmer })
	return out
}

// Nodes returns all nodes sorted by value.
func (g *MapGraph) Nodes() []kmer.Kmer {
	out := make([]kmer.Kmer, 0, len(g.adj))
	for n := range g.adj {
		out = append(out, n)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// balance mirrors Graph.Balance on the map representation.
func (g *MapGraph) balance() (BalanceClass, kmer.Kmer) {
	var start kmer.Kmer
	plus, minus := 0, 0
	for _, n := range g.Nodes() {
		diff := len(g.adj[n]) - g.inDeg[n]
		switch {
		case diff == 0:
		case diff == 1:
			plus++
			start = n
		case diff == -1:
			minus++
		default:
			return BalanceNone, 0
		}
	}
	switch {
	case plus == 0 && minus == 0:
		for _, n := range g.Nodes() {
			if len(g.adj[n]) > 0 {
				return BalanceCircuit, n
			}
		}
		return BalanceCircuit, 0
	case plus == 1 && minus == 1:
		return BalancePath, start
	default:
		return BalanceNone, 0
	}
}

// edgeConnected mirrors Graph.EdgeConnected on the map representation.
func (g *MapGraph) edgeConnected() bool {
	parent := make(map[kmer.Kmer]kmer.Kmer)
	var find func(kmer.Kmer) kmer.Kmer
	find = func(x kmer.Kmer) kmer.Kmer {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	touch := func(n kmer.Kmer) {
		if _, ok := parent[n]; !ok {
			parent[n] = n
		}
	}
	for n, edges := range g.adj {
		for _, e := range edges {
			touch(n)
			touch(e.To)
			if ra, rb := find(n), find(e.To); ra != rb {
				parent[ra] = rb
			}
		}
	}
	if len(parent) == 0 {
		return true
	}
	var root kmer.Kmer
	first := true
	for n := range parent {
		if first {
			root = find(n)
			first = false
			continue
		}
		if find(n) != root {
			return false
		}
	}
	return true
}

// EulerPath returns an Eulerian node walk via Hierholzer on the consumable
// adjacency-map copy — the pre-refactor traversal, per-call maps and all.
func (g *MapGraph) EulerPath() ([]kmer.Kmer, error) {
	if g.edges == 0 {
		return nil, ErrNoEulerian
	}
	class, start := g.balance()
	if class == BalanceNone || !g.edgeConnected() {
		return nil, ErrNoEulerian
	}
	next := make(map[kmer.Kmer][]Edge, len(g.adj))
	for n := range g.adj {
		next[n] = g.Out(n)
	}
	stack := []kmer.Kmer{start}
	var walk []kmer.Kmer
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		if out := next[v]; len(out) > 0 {
			next[v] = out[1:]
			stack = append(stack, out[0].To)
		} else {
			walk = append(walk, v)
			stack = stack[:len(stack)-1]
		}
	}
	for i, j := 0, len(walk)-1; i < j; i, j = i+1, j-1 {
		walk[i], walk[j] = walk[j], walk[i]
	}
	if len(walk) != g.edges+1 {
		return nil, ErrNoEulerian
	}
	return walk, nil
}

// Contigs emits the maximal non-branching paths using per-call maps — the
// pre-refactor implementation.
func (g *MapGraph) Contigs() []Contig {
	var contigs []Contig
	used := make(map[kmer.Kmer]bool, g.edges)

	internal := func(n kmer.Kmer) bool {
		return len(g.adj[n]) == 1 && g.inDeg[n] == 1
	}

	for _, start := range g.Nodes() {
		if internal(start) {
			continue
		}
		for _, e := range g.Out(start) {
			if used[e.Kmer] {
				continue
			}
			used[e.Kmer] = true
			walk := []Edge{e}
			cur := e.To
			for internal(cur) {
				next := g.Out(cur)[0]
				if used[next.Kmer] {
					break
				}
				used[next.Kmer] = true
				walk = append(walk, next)
				cur = next.To
			}
			contigs = append(contigs, g.spellEdgeWalk(start, walk))
		}
	}

	for _, start := range g.Nodes() {
		if !internal(start) {
			continue
		}
		first := g.Out(start)[0]
		if used[first.Kmer] {
			continue
		}
		used[first.Kmer] = true
		walk := []Edge{first}
		cur := first.To
		for cur != start {
			next := g.Out(cur)[0]
			used[next.Kmer] = true
			walk = append(walk, next)
			cur = next.To
		}
		contigs = append(contigs, g.spellEdgeWalk(start, walk))
	}

	sort.Slice(contigs, func(a, b int) bool {
		sa, sb := contigs[a].Seq.String(), contigs[b].Seq.String()
		if len(sa) != len(sb) {
			return len(sa) > len(sb)
		}
		return sa < sb
	})
	return contigs
}

// spellEdgeWalk converts a start node plus a chain of edges into a Contig
// by repeated append — the pre-refactor spelling.
func (g *MapGraph) spellEdgeWalk(start kmer.Kmer, walk []Edge) Contig {
	nodeLen := g.NodeLen()
	seq := genome.MustFromString(start.String(nodeLen))
	var coverage float64
	for _, e := range walk {
		tail := genome.NewSequence(1)
		tail.SetBase(0, e.To.LastBase(nodeLen))
		seq = seq.Append(tail)
		coverage += float64(e.Count)
	}
	return Contig{
		Seq:          seq,
		EdgeCount:    len(walk),
		MeanCoverage: coverage / float64(len(walk)),
	}
}
