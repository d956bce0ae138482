package debruijn

import (
	"errors"
	"fmt"

	"pimassembler/internal/kmer"
)

// ErrNoEulerian reports that the graph admits no Eulerian traversal.
var ErrNoEulerian = errors.New("debruijn: graph has no Eulerian path or circuit")

// EulerPath returns an Eulerian path (or circuit) as a node walk using
// Hierholzer's algorithm — the efficient traversal used for large graphs.
// The walk visits every edge exactly once; spelling it reconstructs a
// superstring of the reads. The traversal runs entirely on node IDs over the
// CSR records: a per-node edge cursor replaces the consumable adjacency-map
// copy, so the only allocation is the returned walk.
func (g *Graph) EulerPath() ([]kmer.Kmer, error) {
	g.finalize()
	if g.numEdges == 0 {
		return nil, ErrNoEulerian
	}
	class, start := g.balanceID()
	if class == BalanceNone || !g.EdgeConnected() {
		return nil, ErrNoEulerian
	}

	n := len(g.kmers)
	g.scratch.ensureNodes(n)
	cursor := g.scratch.cursor
	for id := range cursor {
		cursor[id] = g.nodes[id].off
	}

	// Hierholzer with an explicit stack; the walk assembles reversed.
	stack := append(g.scratch.stack[:0], start)
	walk := g.scratch.walk[:0]
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		e, hi := cursor[v], g.nodes[v+1].off
		for e < hi && g.dead.get(e) {
			e++
		}
		if e < hi {
			cursor[v] = e + 1
			stack = append(stack, g.edges[e].to)
		} else {
			cursor[v] = e
			walk = append(walk, v)
			stack = stack[:len(stack)-1]
		}
	}
	g.scratch.stack, g.scratch.walk = stack[:0], walk

	if len(walk) != g.numEdges+1 {
		// Disconnected edge set slipped through (defensive; EdgeConnected
		// should have caught it).
		return nil, ErrNoEulerian
	}
	// Convert to k-mers, reversing into the fresh result slice.
	out := make([]kmer.Kmer, len(walk))
	for i, id := range walk {
		out[len(walk)-1-i] = g.kmers[id]
	}
	return out, nil
}

// FleuryPath returns an Eulerian path using Fleury's algorithm — the
// traversal the paper's Traverse procedure names (Fig. 5c). Fleury walks
// edge by edge, never crossing a bridge while a non-bridge alternative
// remains. It is O(E²) and kept for paper fidelity and cross-validation;
// EulerPath is the production traversal. The mutable multigraph copy is
// per-node slices of CSR edge indices.
func (g *Graph) FleuryPath() ([]kmer.Kmer, error) {
	g.finalize()
	if g.numEdges == 0 {
		return nil, ErrNoEulerian
	}
	class, start := g.balanceID()
	if class == BalanceNone || !g.EdgeConnected() {
		return nil, ErrNoEulerian
	}

	n := len(g.kmers)
	adj := make([][]int32, n)
	for id := range adj {
		for e, hi := g.span(int32(id)); e < hi; e++ {
			if !g.dead.get(e) {
				adj[id] = append(adj[id], e)
			}
		}
	}
	remaining := g.numEdges

	removeEdge := func(from int32, idx int) {
		adj[from] = append(adj[from][:idx:idx], adj[from][idx+1:]...)
		remaining--
	}
	restoreEdge := func(from int32, idx int, e int32) {
		rest := adj[from]
		out := make([]int32, 0, len(rest)+1)
		out = append(out, rest[:idx]...)
		out = append(out, e)
		out = append(out, rest[idx:]...)
		adj[from] = out
		remaining++
	}

	// reachableEdges counts edges reachable from v in the remaining graph,
	// used for the bridge test.
	g.scratch.ensureNodes(n)
	seen := g.scratch.seen
	reachableEdges := func(v int32) int {
		for i := range seen {
			seen[i] = false
		}
		seen[v] = true
		stack := append(g.scratch.stack[:0], v)
		count := 0
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, e := range adj[u] {
				count++
				if to := g.edges[e].to; !seen[to] {
					seen[to] = true
					stack = append(stack, to)
				}
			}
		}
		g.scratch.stack = stack[:0]
		return count
	}

	walk := []kmer.Kmer{g.kmers[start]}
	v := start
	for remaining > 0 {
		out := adj[v]
		if len(out) == 0 {
			return nil, ErrNoEulerian
		}
		moved := false
		if len(out) > 1 {
			for i := 0; i < len(adj[v]); i++ {
				e := adj[v][i]
				removeEdge(v, i)
				// Not a bridge if every remaining edge stays reachable
				// from the successor.
				if reachableEdges(g.edges[e].to) == remaining {
					v = g.edges[e].to
					walk = append(walk, g.kmers[v])
					moved = true
					break
				}
				restoreEdge(v, i, e)
			}
		}
		if moved {
			continue
		}
		// Single exit, or every alternative is a bridge: take edge 0.
		e := adj[v][0]
		removeEdge(v, 0)
		v = g.edges[e].to
		walk = append(walk, g.kmers[v])
	}
	return walk, nil
}

// ValidateWalk checks that a node walk is a legal traversal: consecutive
// nodes overlap correctly and every graph edge is used exactly once.
func (g *Graph) ValidateWalk(walk []kmer.Kmer) error {
	g.finalize()
	if len(walk) != g.numEdges+1 {
		return fmt.Errorf("debruijn: walk has %d nodes, want %d for %d edges",
			len(walk), g.numEdges+1, g.numEdges)
	}
	used := g.scratch.ensureEdges(len(g.edges))
	var extraKm kmer.Kmer
	extra := 0
	for i := 0; i+1 < len(walk); i++ {
		from, to := walk[i], walk[i+1]
		// The traversed edge k-mer is from extended by to's last base.
		km := from.Extend(g.k, to.LastBase(g.NodeLen()))
		if km.Prefix(g.k) != from || km.Suffix(g.k) != to {
			return fmt.Errorf("debruijn: step %d: %v -> %v is not a de Bruijn transition", i, from, to)
		}
		matched := false
		if id, ok := g.nodeID(from); ok {
			for e, hi := g.span(id); e < hi; e++ {
				if !g.dead.get(e) && !used.get(e) && g.edges[e].kmer == km {
					used.set(e)
					matched = true
					break
				}
			}
		}
		if !matched {
			extraKm = km
			extra++
		}
	}
	for id, from := range g.kmers {
		for e, hi := g.span(int32(id)); e < hi; e++ {
			if !g.dead.get(e) && !used.get(e) {
				return fmt.Errorf("debruijn: edge %s (from node %v) unused",
					g.edges[e].kmer.String(g.k), from)
			}
		}
	}
	if extra != 0 {
		return fmt.Errorf("debruijn: edge %s used %d extra times", extraKm.String(g.k), extra)
	}
	return nil
}
