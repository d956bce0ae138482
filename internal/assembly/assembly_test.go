package assembly

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"pimassembler/internal/core"
	"pimassembler/internal/debruijn"
	"pimassembler/internal/genome"
	"pimassembler/internal/kmer"
	"pimassembler/internal/stats"
)

func TestAssembleReconstructsCleanGenome(t *testing.T) {
	rng := stats.NewRNG(100)
	ref := genome.GenerateGenome(3000, rng)
	reads := genome.TilingReads(ref, 101, 60)
	res, err := Assemble(reads, Options{K: 21})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Contigs) != 1 {
		t.Fatalf("clean tiled genome produced %d contigs", len(res.Contigs))
	}
	if res.Contigs[0].Seq.String() != ref.String() {
		t.Fatal("contig does not reconstruct the genome")
	}
}

func TestAssembleValidatesOptions(t *testing.T) {
	reads := []*genome.Sequence{genome.MustFromString("ACGTACGTACGT")}
	if _, err := Assemble(reads, Options{K: 1}); err == nil {
		t.Fatal("k=1 accepted")
	}
	if _, err := Assemble(reads, Options{K: 33}); err == nil {
		t.Fatal("k=33 accepted")
	}
	// No reads is the run's error, whichever backend or whole-set stage
	// saw the empty source first.
	for _, o := range []Options{{K: 16}, {K: 16, CountWorkers: 4}, {K: 16, Correct: true}} {
		if _, err := Assemble(nil, o); err == nil {
			t.Fatalf("empty reads accepted with %+v", o)
		}
		if _, err := AssemblePIM(core.NewDefaultPlatform(), genome.NewSliceSource(nil), o, 8); err == nil {
			t.Fatalf("empty reads accepted by AssemblePIM with %+v", o)
		}
	}
	// An unset MinOverlap is K-4: k = 8 scaffolds on overlap 4, and k = 4
	// leaves no overlap to join on.
	rng := stats.NewRNG(5)
	sampled := genome.NewReadSampler(genome.GenerateGenome(600, rng), 40, 0, rng).Sample(120)
	res, err := Assemble(sampled, Options{K: 8, Scaffold: true})
	if err != nil {
		t.Fatal(err)
	}
	if want := ScaffoldContigs(res.Contigs, 4); len(want) == 0 || !reflect.DeepEqual(res.Scaffolds, want) {
		t.Fatalf("k=8 with MinOverlap unset: %d scaffolds, want the %d of overlap 4", len(res.Scaffolds), len(want))
	}
	if _, err := Assemble(reads, Options{K: 4, Scaffold: true}); err == nil {
		t.Fatal("scaffolding on a zero overlap (k=4, MinOverlap unset) accepted")
	}
	if _, err := Assemble(reads, Options{K: 8, Scaffold: true, MinOverlap: -1}); err == nil {
		t.Fatal("scaffolding on a negative overlap accepted")
	}
}

func TestAssembleMinCountFiltersErrors(t *testing.T) {
	rng := stats.NewRNG(7)
	ref := genome.GenerateGenome(2000, rng)
	// High coverage with sequencing errors: true k-mers appear many times,
	// error k-mers once or twice.
	sampler := genome.NewReadSampler(ref, 80, 0.003, rng)
	reads := sampler.Sample(800)
	noisy, err := Assemble(reads, Options{K: 17})
	if err != nil {
		t.Fatal(err)
	}
	trimmed, err := Assemble(reads, Options{K: 17, MinCount: 3})
	if err != nil {
		t.Fatal(err)
	}
	if trimmed.Graph.NumEdges() >= noisy.Graph.NumEdges() {
		t.Fatalf("trimming did not shrink the graph: %d vs %d edges",
			trimmed.Graph.NumEdges(), noisy.Graph.NumEdges())
	}
	// Trimmed assembly should be much closer to the true k-mer count.
	trueDistinct := 2000 - 17 + 1
	if trimmed.Graph.NumEdges() > int(float64(trueDistinct)*1.05) {
		t.Fatalf("trimmed graph still has %d edges vs %d true k-mers",
			trimmed.Graph.NumEdges(), trueDistinct)
	}
}

func TestAssembleTimingsPopulated(t *testing.T) {
	rng := stats.NewRNG(8)
	reads := genome.TilingReads(genome.GenerateGenome(1000, rng), 60, 30)
	res, err := Assemble(reads, Options{K: 15})
	if err != nil {
		t.Fatal(err)
	}
	if res.Timings.Hashmap <= 0 || res.Timings.DeBruijn <= 0 || res.Timings.Traverse <= 0 {
		t.Fatalf("stage timings not recorded: %+v", res.Timings)
	}
}

func TestAssembleFleuryOnSmallInput(t *testing.T) {
	rng := stats.NewRNG(9)
	ref := genome.GenerateGenome(120, rng)
	reads := genome.TilingReads(ref, 60, 40)
	h, err := Assemble(reads, Options{K: 12})
	if err != nil {
		t.Fatal(err)
	}
	pim, err := AssemblePIM(core.NewDefaultPlatform(), genome.NewSliceSource(reads), Options{K: 12}, 8)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's Fleury traversal is the cross-validation reference for
	// the Hierholzer walk either backend emits.
	for name, res := range map[string]*Result{"software": h, "pim": &pim.Result} {
		walk, ferr := res.Graph.FleuryPath()
		if (res.EulerWalk == nil) != (ferr != nil) {
			t.Fatalf("%s: Fleury and Hierholzer disagree on traversability: %v vs %v", name, ferr, res.EulerErr)
		}
		if ferr == nil {
			if err := res.Graph.ValidateWalk(walk); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
	}
}

func TestMeasuredCountsConsistent(t *testing.T) {
	rng := stats.NewRNG(10)
	reads := genome.TilingReads(genome.GenerateGenome(1500, rng), 75, 40)
	res, err := Assemble(reads, Options{K: 14})
	if err != nil {
		t.Fatal(err)
	}
	c := res.Counts
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	wantTotal := float64(len(reads) * (75 - 14 + 1))
	if c.TotalKmers != wantTotal {
		t.Fatalf("total k-mers %.0f, want %.0f", c.TotalKmers, wantTotal)
	}
	if int(c.DistinctKmers) != kmer.CountReads(reads, 14).Len() {
		t.Fatal("distinct count mismatch")
	}
	if int(c.Edges) != res.Graph.NumEdges() {
		t.Fatal("edge count mismatch")
	}
}

func TestPaperOpCountsShape(t *testing.T) {
	w := genome.PaperChr14()
	prevTotal := 1e30
	for _, k := range w.KmerRanges {
		c := PaperOpCounts(w, k)
		if err := c.Validate(); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		// Total k-mers strictly decrease with k (fewer per read).
		if c.TotalKmers >= prevTotal {
			t.Fatalf("k=%d: total k-mers not decreasing", k)
		}
		prevTotal = c.TotalKmers
		// Distinct k-mers ≈ genome size at this coverage.
		if c.DistinctKmers < 5e7 || c.DistinctKmers > 9e7 {
			t.Fatalf("k=%d: distinct %.3g implausible for chr14", k, c.DistinctKmers)
		}
	}
	if got := PaperOpCounts(w, 16).TotalKmers; got != 45_711_162*86 {
		t.Fatalf("k=16 total %.0f, want reads×86", got)
	}
}

func TestScaffoldJoinsOverlaps(t *testing.T) {
	// Two contigs with a 20-base overlap must join into one scaffold.
	rng := stats.NewRNG(11)
	whole := genome.GenerateGenome(300, rng)
	a := whole.Subsequence(0, 180)
	b := whole.Subsequence(160, 140)
	contigs := contigsOf(a, b)
	scaffolds := ScaffoldContigs(contigs, 12)
	if len(scaffolds) != 1 {
		t.Fatalf("got %d scaffolds, want 1", len(scaffolds))
	}
	if scaffolds[0].Seq.String() != whole.String() {
		t.Fatal("scaffold did not reconstruct the source")
	}
	if scaffolds[0].Contigs != 2 {
		t.Fatalf("scaffold chained %d contigs, want 2", scaffolds[0].Contigs)
	}
}

func TestScaffoldLeavesDisjointContigs(t *testing.T) {
	rng := stats.NewRNG(12)
	a := genome.GenerateGenome(100, rng)
	b := genome.GenerateGenome(100, rng)
	scaffolds := ScaffoldContigs(contigsOf(a, b), 15)
	if len(scaffolds) != 2 {
		t.Fatalf("disjoint contigs merged: %d scaffolds", len(scaffolds))
	}
}

func TestScaffoldPanicsOnBadOverlap(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ScaffoldContigs(nil, 0)
}

// Property: scaffolding never loses bases — total scaffold length equals
// total contig length minus the joined overlaps, and every contig appears
// in exactly one scaffold.
func TestScaffoldConservation(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		n := 2 + rng.Intn(6)
		var contigs []*genome.Sequence
		for i := 0; i < n; i++ {
			contigs = append(contigs, genome.GenerateGenome(30+rng.Intn(100), rng))
		}
		scaffolds := ScaffoldContigs(contigsOf(contigs...), 10)
		total := 0
		count := 0
		for _, s := range scaffolds {
			total += s.Seq.Len()
			count += s.Contigs
		}
		sum := 0
		for _, c := range contigs {
			sum += c.Len()
		}
		return count == n && total <= sum && total > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func contigsOf(seqs ...*genome.Sequence) []debruijn.Contig {
	out := make([]debruijn.Contig, len(seqs))
	for i, s := range seqs {
		out[i] = debruijn.Contig{Seq: s, EdgeCount: s.Len(), MeanCoverage: 1}
	}
	return out
}

func TestPIMAssemblyMatchesSoftware(t *testing.T) {
	rng := stats.NewRNG(55)
	ref := genome.GenerateGenome(1200, rng)
	reads := genome.NewReadSampler(ref, 90, 0, rng).Sample(120)
	opts := Options{K: 15}
	sw, err := Assemble(reads, opts)
	if err != nil {
		t.Fatal(err)
	}
	p := core.NewDefaultPlatform()
	pim, err := AssemblePIM(p, scannerSource(t, reads), opts, 8) // a one-pass stream
	if err != nil {
		t.Fatal(err)
	}
	// The spectrum read back from the simulated rows is the software
	// table's, unfiltered and filtered; only the probe count is each
	// table's own.
	for _, o := range []Options{opts, {K: 15, MinCount: 2}} {
		want, err := softwareBackend{}.count(genome.NewSliceSource(reads), o)
		if err != nil {
			t.Fatal(err)
		}
		b := &pimBackend{platform: core.NewDefaultPlatform(), hashN: 8}
		got, err := b.count(scannerSource(t, reads), o)
		if err != nil {
			t.Fatal(err)
		}
		if o.MinCount > 1 && len(want.entries) == want.distinct {
			t.Fatal("fixture has nothing to filter")
		}
		if !reflect.DeepEqual(got.entries, want.entries) || got.distinct != want.distinct || got.totals != want.totals {
			t.Errorf("MinCount=%d: spectrum read back from the simulated rows differs from the software table's", o.MinCount)
		}
		if got.probes < got.totals.kmers {
			t.Errorf("MinCount=%d: %d probes for %d k-mers", o.MinCount, got.probes, got.totals.kmers)
		}
	}
	if len(sw.Contigs) != len(pim.Contigs) {
		t.Fatalf("contig counts differ: software %d, PIM %d", len(sw.Contigs), len(pim.Contigs))
	}
	for i := range sw.Contigs {
		if !sw.Contigs[i].Seq.Equal(pim.Contigs[i].Seq) {
			t.Fatalf("contig %d differs:\n  sw:  %s\n  pim: %s",
				i, sw.Contigs[i].Seq, pim.Contigs[i].Seq)
		}
	}
	if p.Summarize().Commands == 0 {
		t.Fatal("PIM run issued no DRAM commands")
	}
}

func TestPIMAssemblyScaffoldOption(t *testing.T) {
	rng := stats.NewRNG(56)
	reads := genome.NewReadSampler(genome.GenerateGenome(800, rng), 70, 0, rng).Sample(100)
	p := core.NewDefaultPlatform()
	res, err := AssemblePIM(p, genome.NewSliceSource(reads), Options{K: 13, Scaffold: true, MinOverlap: 10}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Scaffolds) == 0 || len(res.Scaffolds) > len(res.Contigs) {
		t.Fatalf("scaffolds %d vs contigs %d", len(res.Scaffolds), len(res.Contigs))
	}
}

func TestAssemblyHandlesRepeats(t *testing.T) {
	rng := stats.NewRNG(57)
	ref := genome.GenerateRepetitiveGenome(4000, 250, 4, rng)
	reads := genome.NewReadSampler(ref, 101, 0, rng).Sample(1200)
	res, err := Assemble(reads, Options{K: 16})
	if err != nil {
		t.Fatal(err)
	}
	// Repeats break the assembly into several contigs; every contig must
	// be a genuine substring of the reference (no chimeras on clean reads
	// as long as k-mers don't collide across repeat boundaries — verify
	// the vast majority are exact).
	text := ref.String()
	exact := 0
	for _, c := range res.Contigs {
		if strings.Contains(text, c.Seq.String()) {
			exact++
		}
	}
	if float64(exact) < 0.9*float64(len(res.Contigs)) {
		t.Fatalf("only %d/%d contigs are reference substrings", exact, len(res.Contigs))
	}
}

func TestAssembleSimplifyOption(t *testing.T) {
	rng := stats.NewRNG(90)
	ref := genome.GenerateGenome(2500, rng)
	reads := genome.NewReadSampler(ref, 80, 0.004, rng).Sample(1200)
	plain, err := Assemble(reads, Options{K: 15, MinCount: 3})
	if err != nil {
		t.Fatal(err)
	}
	cleaned, err := Assemble(reads, Options{K: 15, MinCount: 3, Simplify: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(cleaned.Contigs) > len(plain.Contigs) {
		t.Fatalf("simplification increased fragmentation: %d -> %d contigs",
			len(plain.Contigs), len(cleaned.Contigs))
	}
	if debruijn.N50(cleaned.Contigs) < debruijn.N50(plain.Contigs) {
		t.Fatalf("simplification reduced N50: %d -> %d",
			debruijn.N50(plain.Contigs), debruijn.N50(cleaned.Contigs))
	}
}

func TestAssembleCorrectOption(t *testing.T) {
	rng := stats.NewRNG(91)
	ref := genome.GenerateGenome(3000, rng)
	reads := genome.NewReadSampler(ref, 80, 0.003, rng).Sample(1500)
	originals := make([]string, len(reads))
	for i, r := range reads {
		originals[i] = r.String()
	}
	plain, err := Assemble(reads, Options{K: 15})
	if err != nil {
		t.Fatal(err)
	}
	fixed, err := Assemble(reads, Options{K: 15, Correct: true})
	if err != nil {
		t.Fatal(err)
	}
	// Caller's reads must not be mutated.
	for i, r := range reads {
		if r.String() != originals[i] {
			t.Fatalf("Assemble mutated input read %d", i)
		}
	}
	if len(fixed.Contigs) >= len(plain.Contigs) {
		t.Fatalf("correction did not reduce fragmentation: %d -> %d",
			len(plain.Contigs), len(fixed.Contigs))
	}
}
