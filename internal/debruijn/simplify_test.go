package debruijn

import (
	"strings"
	"testing"

	"pimassembler/internal/genome"
	"pimassembler/internal/kmer"
	"pimassembler/internal/stats"
)

// buildWeighted constructs a graph from (kmer, count) pairs.
func buildWeighted(t *testing.T, k int, entries map[string]uint32) *Graph {
	t.Helper()
	g := NewGraph(k)
	for text, count := range entries {
		g.AddKmer(kmer.MustParse(text), count)
	}
	return g
}

func TestClipTipsRemovesDeadEnd(t *testing.T) {
	// Main path spells ACGTT; a tip (GCG -> CGT) merges into the main
	// path's CGT node, whose in-degree becomes 2.
	g := buildWeighted(t, 3, map[string]uint32{
		"ACG": 10, "CGT": 10, "GTT": 10, // main chain AC->CG->GT->TT
		"GCG": 1, // tip: GC->CG (CG then continues via main)
	})
	before := g.NumEdges()
	clipped := g.ClipTips(3)
	if clipped != 1 {
		t.Fatalf("clipped %d edges, want 1", clipped)
	}
	if g.NumEdges() != before-1 {
		t.Fatalf("edges %d, want %d", g.NumEdges(), before-1)
	}
	if g.HasNode(kmer.MustParse("GC")) {
		t.Fatal("tip start node not pruned")
	}
	// Main chain intact.
	for _, text := range []string{"ACG", "CGT", "GTT"} {
		km := kmer.MustParse(text)
		found := false
		for _, e := range g.Out(km.Prefix(3)) {
			if e.Kmer == km {
				found = true
			}
		}
		if !found {
			t.Fatalf("main-chain edge %s lost", text)
		}
	}
}

func TestClipTipsIgnoresLongBranches(t *testing.T) {
	g := buildWeighted(t, 3, map[string]uint32{
		"ACG": 10, "CGT": 10, "GTT": 10,
		"GCG": 1,
	})
	if clipped := g.ClipTips(0); clipped != 0 {
		t.Fatal("maxLen=0 must clip nothing")
	}
}

func TestPopBubblesKeepsDominantArm(t *testing.T) {
	// Two parallel single-edge arms AC->CA (via ACA? no) — construct a
	// bubble with 4-mers: branch node ACG splits on two 4-mers ACGT/ACGA
	// converging... single-edge arms converge only if suffixes equal,
	// impossible for distinct k-mers. Use 2-edge arms:
	// branch AAC: arm1 AACG->ACGT (nodes ACG->CGT), arm2 AACT->ACTT?
	// ends CGT vs CTT differ. Construct carefully with k=4:
	// arm1: AACG, ACGG  (AAC->ACG->CGG)
	// arm2: AACC, ACCG? ends CCG != CGG.
	// For equal ends the last (k-1)-mer must match: arm edges
	// arm1: AACG, ACGG -> end CGG
	// arm2: AACT, ACTG? end CTG. Still differs.
	// Equal-end 2-edge arms need final 3-mer equal: choose end "GGG":
	// arm1: AACG, ACGG, CGGG? that's 3 edges (AAC->ACG->CGG->GGG).
	// arm2: AACT, ACTG, CTGG? end TGG. Hmm.
	// Simpler: use explicit node walks where arms differ only in their
	// middle base — classic substitution bubble with k=4 and arm length 3:
	// true:  AAC -> ACG -> CGT -> GTC  (edges AACG, ACGT, CGTC)
	// error: AAC -> ACT -> CTT -> TTC? ends GTC vs TTC differ.
	// A substitution bubble converges after k-1 = 3 edges only when the
	// downstream bases realign: true read ...AACGTC..., error ...AACTTC...
	// do not share 3-suffix until 3 steps past the error. Model exactly:
	// true:   AACGT CGTCA? — build from strings instead.
	trueSeq := genome.MustFromString("AAACGTCCC")
	errSeq := genome.MustFromString("AAAGGTCCC") // C->G substitution at pos 3
	k := 4
	g := NewGraph(k)
	counts := map[kmer.Kmer]uint32{}
	for _, km := range kmer.AppendKmers(nil, trueSeq.AppendCodes(nil), k) {
		counts[km] += 10
	}
	for _, km := range kmer.AppendKmers(nil, errSeq.AppendCodes(nil), k) {
		counts[km]++
	}
	for km, c := range counts {
		g.AddKmer(km, c)
	}
	popped := g.PopBubbles(2 * k)
	if popped == 0 {
		t.Fatal("substitution bubble not popped")
	}
	// The surviving graph must spell the true sequence.
	contigs := g.Contigs()
	joined := ""
	for _, c := range contigs {
		joined += " " + c.Seq.String()
	}
	if !strings.Contains(joined, "AAACGTCCC") {
		t.Fatalf("dominant path lost: %s", joined)
	}
	for _, c := range contigs {
		if strings.Contains(c.Seq.String(), "AAAGGT") {
			t.Fatal("error arm survived")
		}
	}
}

func TestSimplifyErrorReads(t *testing.T) {
	// End-to-end: noisy reads fragment the assembly; Simplify must recover
	// a dramatically cleaner graph whose edge count approaches the true
	// k-mer count.
	rng := stats.NewRNG(77)
	ref := genome.GenerateGenome(3000, rng)
	sampler := genome.NewReadSampler(ref, 80, 0.004, rng)
	reads := sampler.Sample(1500)
	k := 15
	tbl := kmer.NewCountTable(k, 4096)
	for _, r := range reads {
		kmer.Iterate(r, k, func(km kmer.Kmer) { tbl.Add(km) })
	}
	g := Build(tbl)
	trueKmers := 3000 - k + 1
	noisyEdges := g.NumEdges()
	if noisyEdges < trueKmers*3/2 {
		t.Skipf("error injection produced too few artefacts (%d edges)", noisyEdges)
	}
	st := g.Simplify(2*k, 2*k, 10)
	if st.TipsClipped == 0 {
		t.Error("no tips clipped on noisy input")
	}
	if g.NumEdges() >= noisyEdges {
		t.Error("simplification removed nothing")
	}
	// Topology passes alone cannot reach error arms braided into other
	// error arms; the coverage cutoff (errors appear 1-2 times at ~40x
	// depth) plus a final clip must recover a near-clean graph.
	if removed := g.CoverageCutoff(3); removed == 0 {
		t.Error("coverage cutoff removed nothing")
	}
	g.Simplify(2*k, 2*k, 10)
	trueEdges := 3000 - k + 1
	if g.NumEdges() > trueEdges*11/10 {
		t.Errorf("%d edges remain vs %d true k-mers", g.NumEdges(), trueEdges)
	}
	if n := len(g.Contigs()); n > 60 {
		t.Errorf("still %d contigs after simplification + cutoff", n)
	}
}

func TestCoverageCutoffPreservesStrongEdges(t *testing.T) {
	g := buildWeighted(t, 3, map[string]uint32{"ACG": 10, "CGT": 10, "GTT": 1})
	if removed := g.CoverageCutoff(2); removed != 1 {
		t.Fatalf("removed %d, want 1", removed)
	}
	if g.NumEdges() != 2 {
		t.Fatalf("edges %d, want 2", g.NumEdges())
	}
	if g.CoverageCutoff(1) != 0 {
		t.Fatal("cutoff 1 must remove nothing")
	}
}

func TestSimplifyPreservesCleanGraph(t *testing.T) {
	rng := stats.NewRNG(78)
	ref := genome.GenerateGenome(2000, rng)
	reads := genome.TilingReads(ref, 100, 50)
	k := 17
	tbl := kmer.NewCountTable(k, 4096)
	for _, r := range reads {
		kmer.Iterate(r, k, func(km kmer.Kmer) { tbl.Add(km) })
	}
	g := Build(tbl)
	before := g.NumEdges()
	g.Simplify(2*k, 2*k, 10)
	if g.NumEdges() != before {
		t.Fatalf("simplification damaged a clean graph: %d -> %d edges", before, g.NumEdges())
	}
	contigs := g.Contigs()
	if len(contigs) != 1 || contigs[0].Seq.String() != ref.String() {
		t.Fatal("clean assembly broken by simplification")
	}
}

func TestSimplifyStatsRounds(t *testing.T) {
	g := buildWeighted(t, 3, map[string]uint32{"ACG": 5, "CGT": 5, "GTT": 5, "GCG": 1})
	st := g.Simplify(3, 6, 10)
	if st.RoundsRun < 1 {
		t.Fatal("no rounds recorded")
	}
	if st.TipsClipped != 1 {
		t.Fatalf("tips clipped %d, want 1", st.TipsClipped)
	}
}
