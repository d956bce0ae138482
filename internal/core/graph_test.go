package core

import (
	"testing"

	"pimassembler/internal/debruijn"
	"pimassembler/internal/dram"
	"pimassembler/internal/genome"
	"pimassembler/internal/kmer"
	"pimassembler/internal/stats"
)

func buildGraph(t *testing.T, seed uint64, genomeLen, k int) *debruijn.Graph {
	t.Helper()
	rng := stats.NewRNG(seed)
	g := genome.GenerateGenome(genomeLen, rng)
	tbl := kmer.NewCountTable(k, genomeLen)
	kmer.Iterate(g, k, func(km kmer.Kmer) { tbl.Add(km) })
	return debruijn.Build(tbl)
}

func TestGraphEngineDegreesMatchSoftware(t *testing.T) {
	p := NewDefaultPlatform()
	// ~300 nodes spans two 256-lane intervals, exercising multi-block
	// placement and the controller merge.
	g := buildGraph(t, 9, 300, 9)
	e := NewGraphEngine(p, g, 0)
	if len(e.nodes) <= e.lanes {
		t.Fatalf("expected >=2 intervals for %d nodes", g.NumNodes())
	}
	in, out := e.Degrees()
	wantIn, wantOut := map[int32]int{}, map[int32]int{}
	for _, id := range g.SortedIDs() {
		g.EachOutID(id, func(to int32, _ kmer.Kmer, _ uint32) {
			wantOut[id]++
			wantIn[to]++
		})
	}
	for i, id := range g.SortedIDs() {
		if in[i] != wantIn[id] || out[i] != wantOut[id] {
			t.Fatalf("node %d degrees in %d out %d, want %d and %d", i, in[i], out[i], wantIn[id], wantOut[id])
		}
	}
}

func TestGraphEngineStartVertex(t *testing.T) {
	p := NewDefaultPlatform()
	// A linear chain has a unique start vertex.
	s := genome.MustFromString("ACGTTGCA")
	tbl := kmer.NewCountTable(4, 8)
	kmer.Iterate(s, 4, func(km kmer.Kmer) { tbl.Add(km) })
	g := debruijn.Build(tbl)
	e := NewGraphEngine(p, g, 0)
	start, err := e.StartVertex()
	if err != nil {
		t.Fatal(err)
	}
	// A chain starts at its first (k-1)-mer.
	if want := kmer.MustParse(s.String()[:3]); start != want {
		t.Fatalf("start %v, want %v", start, want)
	}
}

func TestGraphEngineEulerPath(t *testing.T) {
	p := NewDefaultPlatform()
	g := buildGraph(t, 21, 90, 10)
	e := NewGraphEngine(p, g, 0)
	walk, err := e.EulerPath()
	if err != nil {
		// Random genomes may repeat k-mers and be non-Eulerian; regenerate
		// with another seed in that case. Seed 21 at k=10 is Eulerian, so
		// reaching here is a real failure.
		t.Fatal(err)
	}
	if err := g.ValidateWalk(walk); err != nil {
		t.Fatal(err)
	}
}

func TestGraphEngineUsesPIMAdds(t *testing.T) {
	p := NewDefaultPlatform()
	g := buildGraph(t, 5, 120, 8)
	e := NewGraphEngine(p, g, 0)
	p.Stream().Reset()
	e.Degrees()
	m := p.Summarize().Histogram.Totals
	if m[dram.CmdAAP3] == 0 {
		t.Error("degree reduction issued no TRA carries: PIM_Add must run in memory")
	}
	if m[dram.CmdAAP2] == 0 {
		t.Error("degree reduction issued no two-row AAPs: CSA sums must run in memory")
	}
}

func TestGraphEngineAllocationFormula(t *testing.T) {
	p := NewDefaultPlatform()
	g := buildGraph(t, 13, 300, 9)
	e := NewGraphEngine(p, g, 0)
	n := g.NumNodes()
	geo := p.Geometry()
	// Ns = ceil(N/f) with f = min(rows, cols) vertices per sub-array.
	f := min(geo.RowsPerSubarray, geo.ColsPerSubarray)
	want := (n + f - 1) / f
	// Blocks are in ascending (src, dst) order, so the last one names the
	// highest interval the engine divided the vertices into.
	if got := e.blocks[len(e.blocks)-1].key[0] + 1; got != want || want != (n+255)/256 {
		t.Fatalf("Ns = %d, want ceil(%d/256) = %d", got, n, want)
	}
}
