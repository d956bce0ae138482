package debruijn

import (
	"slices"
	"sort"
)

// Graph simplification: the error-removal passes Velvet-class assemblers
// (the paper's CPU baseline family, [11]) run between construction and
// traversal. Sequencing errors create two topologies: *tips* — short
// dead-end branches seeded by an error near a read end — and *bubbles* —
// parallel paths between the same endpoints seeded by an error mid-read.
// Both passes preserve the dominant (higher-coverage) structure.
//
// All passes operate on node IDs and CSR edge slots; removal tombstones the
// slot and updates its two nodes' live degrees in place. A node whose last
// edge goes is gone with it (the node-set rule of Graph): every pass reads a
// node with no live edge as one it has nothing to do at.

// SimplifyStats reports what a simplification pass removed.
type SimplifyStats struct {
	TipsClipped   int // edges removed by tip clipping
	BubblesPopped int // parallel paths removed
	EdgesRemoved  int // total edges deleted
	RoundsRun     int
}

// removeEdgeAt tombstones edge slot e of node from. Returns false when the
// slot was already dead.
func (g *Graph) removeEdgeAt(from, e int32) bool {
	if g.dead.get(e) {
		return false
	}
	g.dead.set(e)
	g.nodes[from].out--
	g.nodes[g.edges[e].to].in--
	g.numEdges--
	g.order, g.rank = nil, nil // either end may have lost its last edge
	return true
}

// ClipTips removes dead-end branches of at most maxLen edges whose mean
// coverage is below that of the path competing at their branch point.
// Returns the number of edges removed. One call runs a single pass; Simplify
// iterates to convergence.
func (g *Graph) ClipTips(maxLen int) int {
	if maxLen <= 0 {
		return 0
	}
	g.finalize()
	removed := 0
	// A tip starts at a node whose in-degree is 0 (forward tip) or ends at
	// a node with out-degree 0 (reverse tip), and is shorter than maxLen.
	for start := int32(0); int(start) < len(g.kmers); start++ {
		// Forward tip: orphan start node with exactly one way forward.
		if nd := g.nodes[start]; nd.in == 0 && nd.out == 1 {
			path, end := g.walkForward(start, maxLen)
			if path != nil {
				// It is a clippable tip when it merges into a node that has
				// other inputs (the main path continues without it).
				if g.nodes[end].in > 1 {
					removed += g.removePath(start, path)
				}
			}
		}
		// Reverse tip: dead end with exactly one way back, hanging off a
		// branching node (error near the read's tail).
		if nd := g.nodes[start]; nd.out == 0 && nd.in == 1 {
			path, branch := g.walkBackward(start, maxLen)
			if path != nil {
				if g.nodes[branch].out > 1 {
					removed += g.removePath(branch, path)
				}
			}
		}
	}
	return removed
}

// predecessorEdge returns node n's single live incoming edge slot and its
// source node, or ok=false when n has other than exactly one predecessor
// edge. A predecessor's edge k-mer is n prepended with one base (e = b·n in
// sequence order), so the at most four sources are that base followed by n's
// first k-2 bases: they differ in base 0, the lowest bits, only, and sit side
// by side in the sorted node list — one binary search finds them all.
func (g *Graph) predecessorEdge(n int32) (from, edge int32, ok bool) {
	e0 := g.kmers[n] << 2 // the edge k-mer for b = T, which encodes as 00
	p0 := e0.Prefix(g.k)
	pid, _ := slices.BinarySearch(g.kmers, p0)
	count := 0
	for ; pid < len(g.kmers) && g.kmers[pid]>>2 == p0>>2; pid++ {
		e := e0 | g.kmers[pid]&3
		for slot, hi := g.span(int32(pid)); slot < hi; slot++ {
			if !g.dead.get(slot) && g.edges[slot].kmer == e {
				from, edge = int32(pid), slot
				count++
			}
		}
	}
	return from, edge, count == 1
}

// walkBackward follows 1-in/1-out nodes upstream from end for at most
// maxLen edges, stopping at a node that branches. It returns the path of
// edge slots in forward order (branch → end) plus the branch node, or nil
// when the walk exceeds maxLen.
func (g *Graph) walkBackward(end int32, maxLen int) ([]int32, int32) {
	var rev []int32
	cur := end
	for len(rev) < maxLen {
		from, edge, ok := g.predecessorEdge(cur)
		if !ok {
			return nil, cur
		}
		rev = append(rev, edge)
		cur = from
		if nd := g.nodes[cur]; nd.out > 1 || nd.in != 1 {
			// Reached the branch point.
			for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
				rev[i], rev[j] = rev[j], rev[i]
			}
			return rev, cur
		}
	}
	return nil, cur
}

// walkForward follows 1-out nodes from start for at most maxLen edges,
// stopping at a node that branches or merges. Returns nil if the walk
// exceeds maxLen without terminating (not a tip).
func (g *Graph) walkForward(start int32, maxLen int) ([]int32, int32) {
	var path []int32
	cur := start
	for len(path) < maxLen {
		if g.nodes[cur].out != 1 {
			return nil, cur
		}
		e := g.firstLiveEdge(g.nodes[cur].off)
		path = append(path, e)
		cur = g.edges[e].to
		if nd := g.nodes[cur]; nd.in > 1 || nd.out != 1 {
			return path, cur
		}
	}
	return nil, cur
}

// removePath deletes the chain of edge slots starting at start.
func (g *Graph) removePath(start int32, path []int32) int {
	cur := start
	removed := 0
	for _, e := range path {
		if g.removeEdgeAt(cur, e) {
			removed++
		}
		cur = g.edges[e].to
	}
	return removed
}

// PopBubbles finds pairs of equal-length parallel simple paths (length ≤
// maxLen) between the same branch and merge nodes and removes the one with
// lower mean coverage. Returns the number of bubbles popped.
func (g *Graph) PopBubbles(maxLen int) int {
	g.finalize()
	popped := 0
	for branch := int32(0); int(branch) < len(g.kmers); branch++ {
		if g.nodes[branch].out < 2 {
			continue
		}
		// Trace each outgoing simple path to its merge node.
		type trace struct {
			path []int32
			end  int32
			cov  float64
		}
		var traces []trace
		for first, hi := g.span(branch); first < hi; first++ {
			if g.dead.get(first) {
				continue
			}
			path := []int32{first}
			cur := g.edges[first].to
			cov := float64(g.edges[first].count)
			for len(path) < maxLen && g.nodes[cur].in == 1 && g.nodes[cur].out == 1 {
				e := g.firstLiveEdge(g.nodes[cur].off)
				path = append(path, e)
				cov += float64(g.edges[e].count)
				cur = g.edges[e].to
			}
			traces = append(traces, trace{path: path, end: cur, cov: cov / float64(len(path))})
		}
		// Pop the weaker arm of any pair converging on the same node with
		// the same length (a substitution error creates exactly this).
		sort.Slice(traces, func(a, b int) bool { return traces[a].cov > traces[b].cov })
		for i := 0; i < len(traces); i++ {
			for j := i + 1; j < len(traces); j++ {
				if traces[i].end == traces[j].end && len(traces[i].path) == len(traces[j].path) {
					if g.removePath(branch, traces[j].path) > 0 {
						popped++
						traces = append(traces[:j], traces[j+1:]...)
						j--
					}
				}
			}
		}
	}
	return popped
}

// Simplify runs tip clipping and bubble popping to convergence (bounded at
// maxRounds) and reports what was removed. tipLen/bubbleLen bound the
// branch lengths considered; Velvet's defaults correspond to ~2k.
func (g *Graph) Simplify(tipLen, bubbleLen, maxRounds int) SimplifyStats {
	var st SimplifyStats
	for round := 0; round < maxRounds; round++ {
		before := g.numEdges
		clipped := g.ClipTips(tipLen)
		bubbles := g.PopBubbles(bubbleLen)
		st.TipsClipped += clipped
		st.BubblesPopped += bubbles
		st.RoundsRun++
		if g.numEdges == before {
			break
		}
		st.EdgesRemoved += before - g.numEdges
	}
	return st
}
