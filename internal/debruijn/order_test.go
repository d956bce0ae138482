package debruijn

import (
	"sort"
	"testing"

	"pimassembler/internal/kmer"
	"pimassembler/internal/stats"
)

// refOrder is the comparison sort the node order was first built with: the
// oracle the merge-join's node list and SortedIDs' skipping of edgeless
// nodes are checked against. The degrees it reads are recounted from the
// live edge slots, not taken from the node records.
func refOrder(t *testing.T, g *Graph) []int32 {
	t.Helper()
	g.finalize()
	in, out := make([]int32, len(g.kmers)), make([]int32, len(g.kmers))
	for id := range g.kmers {
		for e, hi := g.span(int32(id)); e < hi; e++ {
			if !g.dead.get(e) {
				out[id]++
				in[g.edges[e].to]++
			}
		}
	}
	var order []int32
	for id := range g.kmers {
		if nd := g.nodes[id]; nd.in != in[id] || nd.out != out[id] {
			t.Fatalf("node %d: degrees %d in %d out, its live edges say %d in %d out", id, nd.in, nd.out, in[id], out[id])
		}
		if in[id]+out[id] > 0 {
			order = append(order, int32(id))
		}
	}
	sort.Slice(order, func(a, b int) bool {
		return g.kmers[order[a]] < g.kmers[order[b]]
	})
	return order
}

func assertOrderMatchesReference(t *testing.T, g *Graph, when string) {
	t.Helper()
	got, want := g.SortedIDs(), refOrder(t, g)
	if len(got) != len(want) || len(got) != g.NumNodes() {
		t.Fatalf("%s: %d ordered nodes, reference %d, NumNodes %d", when, len(got), len(want), g.NumNodes())
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: position %d holds node %d, reference %d", when, i, got[i], want[i])
		}
	}
	ranked := 0
	for id := range g.kmers {
		switch r := g.RankOfID(int32(id)); {
		case r >= 0 && got[r] != int32(id):
			t.Fatalf("%s: rank[%d] = %d but order[%d] = %d", when, id, r, r, got[r])
		case r >= 0:
			ranked++
		case g.nodes[id].live():
			t.Fatalf("%s: live node %d has no rank", when, id)
		}
	}
	if ranked != len(got) {
		t.Fatalf("%s: %d nodes ranked, %d ordered", when, ranked, len(got))
	}
}

// TestNodeOrderMatchesComparisonSort: the merged node order equals the old
// sort.Slice order on random graphs — after the first build, after
// simplification has pruned nodes, and after a second AddKmer + finalize
// round on the pruned graph (new nodes, revived nodes, surviving CSR edges).
func TestNodeOrderMatchesComparisonSort(t *testing.T) {
	for _, k := range []int{4, 16, 32} {
		for _, edges := range []int{30, 5_000} { // below and above the radix cut-over
			rng := stats.NewRNG(uint64(1000*k + edges))
			mask := kmer.Kmer(kmer.Mask(k))
			g := NewGraph(k)
			seen := make(map[kmer.Kmer]bool)
			var added []kmer.Kmer
			add := func(km kmer.Kmer, count uint32) {
				if !seen[km] {
					seen[km] = true
					added = append(added, km)
					g.AddKmer(km, count)
				}
			}
			// Chains of overlapping k-mers with random branches off them,
			// half of them seen once: tips and low-coverage arms to prune.
			target := edges
			if k == 4 {
				target = min(edges, 128) // there are only 256 4-mers
			}
			for len(added) < target {
				km := kmer.Kmer(rng.Uint64()) & mask
				for step := 0; step < 1+rng.Intn(40); step++ {
					add(km, uint32(1+rng.Intn(2)*9))
					km = (km>>2 | kmer.Kmer(rng.Intn(4))<<(2*uint(k-1))) & mask
				}
			}
			assertOrderMatchesReference(t, g, "first build")

			before := g.NumNodes()
			g.Simplify(2*k, 2*k, 10)
			assertOrderMatchesReference(t, g, "after Simplify")
			g.CoverageCutoff(2)
			assertOrderMatchesReference(t, g, "after CoverageCutoff")
			if k > 4 && edges > 100 && g.NumNodes() == before {
				t.Fatalf("k=%d: simplification pruned no node, the pruned case is untested", k)
			}

			// Second round: put a third of the old edges back (reviving
			// pruned nodes) and add fresh ones.
			var revived []kmer.Kmer
			for i, km := range added {
				if i%3 == 0 && g.OutDegree(km.Prefix(k)) == 0 {
					revived = append(revived, km)
				}
			}
			if k > 4 && edges > 100 && len(revived) == 0 {
				t.Fatalf("k=%d: no removed edge to put back, the revived case is untested", k)
			}
			for _, km := range revived {
				g.AddKmer(km, 5)
			}
			for i := 0; i < edges/4; i++ {
				add(kmer.Kmer(rng.Uint64())&mask, 3)
			}
			assertOrderMatchesReference(t, g, "second finalize")
		}
	}
}
