package genome

import (
	"strings"
	"testing"
	"testing/quick"

	"pimassembler/internal/stats"
)

func TestBaseEncodingMatchesFig7(t *testing.T) {
	// Fig. 7: T=00, G=01, A=10, C=11.
	cases := []struct {
		b    Base
		code byte
		char byte
	}{
		{T, 0b00, 'T'},
		{G, 0b01, 'G'},
		{A, 0b10, 'A'},
		{C, 0b11, 'C'},
	}
	for _, c := range cases {
		if byte(c.b) != c.code {
			t.Errorf("%c encodes as %02b, want %02b", c.char, byte(c.b), c.code)
		}
		if c.b.Letter() != c.char {
			t.Errorf("code %02b renders %c, want %c", c.code, c.b.Letter(), c.char)
		}
	}
}

func TestComplementPairs(t *testing.T) {
	if A.Complement() != T || T.Complement() != A {
		t.Error("A/T complement broken")
	}
	if C.Complement() != G || G.Complement() != C {
		t.Error("C/G complement broken")
	}
	for _, b := range []Base{A, C, G, T} {
		if b.Complement().Complement() != b {
			t.Errorf("complement not involutive for %v", b)
		}
	}
}

func TestParseBase(t *testing.T) {
	for _, c := range []byte{'A', 'a', 'C', 'c', 'G', 'g', 'T', 't', 'U', 'u'} {
		if _, err := ParseBase(c); err != nil {
			t.Errorf("ParseBase(%q) failed: %v", c, err)
		}
	}
	for _, c := range []byte{'N', 'X', '-', ' ', '1'} {
		if _, err := ParseBase(c); err == nil {
			t.Errorf("ParseBase(%q) accepted", c)
		}
	}
}

func TestSequenceRoundTrip(t *testing.T) {
	const text = "ACGTTGCAACGTAGCTAGCTA"
	s, err := FromString(text)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != len(text) {
		t.Fatalf("len %d", s.Len())
	}
	if s.String() != text {
		t.Fatalf("round trip %q != %q", s.String(), text)
	}
}

func TestFromStringRejectsAmbiguity(t *testing.T) {
	if _, err := FromString("ACGTN"); err == nil {
		t.Fatal("N accepted")
	}
	if _, err := FromString("ACGTN"); err == nil || !strings.Contains(err.Error(), "position 4") {
		t.Fatalf("error should locate the bad base, got %v", err)
	}
}

func TestSetBaseBoundary(t *testing.T) {
	s := NewSequence(9)
	s.SetBase(8, C)
	if s.Base(8) != C {
		t.Fatal("last base lost")
	}
	// Packing boundary: positions 3 and 4 share no byte bits.
	s.SetBase(3, G)
	s.SetBase(4, A)
	if s.Base(3) != G || s.Base(4) != A {
		t.Fatal("byte-boundary bases interfere")
	}
}

func TestSubsequence(t *testing.T) {
	s := MustFromString("ACGTACGTAC")
	sub := s.Subsequence(2, 4)
	if sub.String() != "GTAC" {
		t.Fatalf("subsequence %q", sub.String())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range subsequence accepted")
		}
	}()
	s.Subsequence(8, 5)
}

func TestReverseComplement(t *testing.T) {
	s := MustFromString("AACGT")
	rc := s.ReverseComplement()
	if rc.String() != "ACGTT" {
		t.Fatalf("revcomp %q, want ACGTT", rc.String())
	}
	if !rc.ReverseComplement().Equal(s) {
		t.Fatal("revcomp not involutive")
	}
}

func TestAppend(t *testing.T) {
	a := MustFromString("ACG")
	b := MustFromString("TTA")
	if got := a.Append(b).String(); got != "ACGTTA" {
		t.Fatalf("append %q", got)
	}
}

func TestPackBits(t *testing.T) {
	// "TGAC" packs as T=00 G=01 A=10 C=11 → bits 11_10_01_00 = 0xE4.
	s := MustFromString("TGAC")
	if got := s.packed[0]; got != 0xE4 {
		t.Fatalf("packed byte = %#x, want 0xE4", got)
	}
}

// Property: string round trip is identity for random sequences.
func TestSequenceRoundTripProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		n := 1 + rng.Intn(500)
		g := GenerateGenome(n, rng)
		back, err := FromString(g.String())
		return err == nil && back.Equal(g)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateGenomeDeterministic(t *testing.T) {
	a := GenerateGenome(1000, stats.NewRNG(5))
	b := GenerateGenome(1000, stats.NewRNG(5))
	if !a.Equal(b) {
		t.Fatal("same seed produced different genomes")
	}
}

func TestGenerateGenomeComposition(t *testing.T) {
	g := GenerateGenome(100000, stats.NewRNG(7))
	var counts [4]int
	for i := 0; i < g.Len(); i++ {
		counts[g.Base(i)]++
	}
	for b, c := range counts {
		frac := float64(c) / float64(g.Len())
		if frac < 0.22 || frac > 0.28 {
			t.Errorf("base %d frequency %.3f far from uniform", b, frac)
		}
	}
}

func TestGenerateRepetitiveGenome(t *testing.T) {
	g := GenerateRepetitiveGenome(5000, 200, 10, stats.NewRNG(3))
	if g.Len() != 5000 {
		t.Fatalf("length %d", g.Len())
	}
}

func TestReadSampler(t *testing.T) {
	rng := stats.NewRNG(11)
	g := GenerateGenome(10000, rng)
	s := NewReadSampler(g, 101, 0, rng)
	reads := s.Sample(50)
	if len(reads) != 50 {
		t.Fatalf("got %d reads", len(reads))
	}
	for _, r := range reads {
		if r.Len() != 101 {
			t.Fatalf("read length %d", r.Len())
		}
		// Error-free reads must occur in the genome.
		if !strings.Contains(g.String(), r.String()) {
			t.Fatal("error-free read not a genome substring")
		}
	}
}

func TestReadSamplerErrors(t *testing.T) {
	rng := stats.NewRNG(13)
	g := GenerateGenome(5000, rng)
	s := NewReadSampler(g, 100, 0.1, rng)
	// With a 10% error rate, 20 reads of 100bp should virtually always
	// contain at least one substitution.
	text := g.String()
	mismatched := 0
	for i := 0; i < 20; i++ {
		if !strings.Contains(text, s.Next().String()) {
			mismatched++
		}
	}
	if mismatched == 0 {
		t.Fatal("error injection produced no substitutions")
	}
}

func TestReadSamplerPanics(t *testing.T) {
	rng := stats.NewRNG(1)
	g := GenerateGenome(50, rng)
	for _, f := range []func(){
		func() { NewReadSampler(g, 51, 0, rng) },
		func() { NewReadSampler(g, 0, 0, rng) },
		func() { NewReadSampler(g, 10, 1.0, rng) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestTilingReadsCoverGenome(t *testing.T) {
	rng := stats.NewRNG(17)
	g := GenerateGenome(1000, rng)
	reads := TilingReads(g, 50, 20)
	text := g.String()
	for _, r := range reads {
		if !strings.Contains(text, r.String()) {
			t.Fatal("tiling read not in genome")
		}
	}
	// Every genome k-mer with k = overlap+1 must appear in some read.
	k := 21
	inReads := make(map[string]bool)
	for _, r := range reads {
		rs := r.String()
		for i := 0; i+k <= len(rs); i++ {
			inReads[rs[i:i+k]] = true
		}
	}
	for i := 0; i+k <= len(text); i++ {
		if !inReads[text[i:i+k]] {
			t.Fatalf("genome %d-mer at %d missing from tiling reads", k, i)
		}
	}
}

func TestPaperChr14Constants(t *testing.T) {
	w := PaperChr14()
	if w.ReadCount != 45_711_162 || w.ReadLen != 101 {
		t.Fatalf("workload %+v does not match §IV", w)
	}
	if len(w.KmerRanges) != 4 || w.KmerRanges[0] != 16 || w.KmerRanges[3] != 32 {
		t.Fatalf("k sweep %v, want {16,22,26,32}", w.KmerRanges)
	}
	if got := w.KmersPerRead(16); got != 86 {
		t.Fatalf("kmers per read %d, want 86 for k=16", got)
	}
	if w.Coverage() < 40 || w.Coverage() > 60 {
		t.Fatalf("coverage %.1f implausible for the paper's workload", w.Coverage())
	}
	// ~9.2 GB claim: reads alone are ≈4.6 GB of bases; with FASTQ overhead
	// the dataset doubles. Sanity: total bases ≈ 4.6e9.
	totalBases := w.ReadCount * int64(w.ReadLen)
	if totalBases < 4_000_000_000 || totalBases > 5_000_000_000 {
		t.Fatalf("total bases %d out of expected range", totalBases)
	}
}

func TestDistinctKmersBounds(t *testing.T) {
	w := PaperChr14()
	if got := w.DistinctKmers(8); got != 1<<16 {
		t.Fatalf("distinct 8-mers %d, want 4^8", got)
	}
	if got := w.DistinctKmers(32); got != w.GenomeLen-31 {
		t.Fatalf("distinct 32-mers %d, want genome positions", got)
	}
}

func TestPairedSamplerInsertDistribution(t *testing.T) {
	rng := stats.NewRNG(30)
	g := GenerateGenome(20000, rng)
	s := NewPairedSampler(g, 60, 500, 25, 0, rng)
	var sum, sumsq float64
	const n = 2000
	for i := 0; i < n; i++ {
		ins := float64(s.Next().InsertSize)
		sum += ins
		sumsq += ins * ins
	}
	mean := sum / n
	std := sumsq/n - mean*mean
	if mean < 490 || mean > 510 {
		t.Fatalf("insert mean %.1f, want ~500", mean)
	}
	if std < 15*15 || std > 35*35 {
		t.Fatalf("insert variance %.1f outside the configured spread", std)
	}
}

func TestFlattenRestoresForwardStrand(t *testing.T) {
	rng := stats.NewRNG(31)
	g := GenerateGenome(5000, rng)
	s := NewPairedSampler(g, 70, 300, 0, 0, rng)
	pairs := make([]ReadPair, 40)
	for i := range pairs {
		pairs[i] = s.Next()
	}
	flat := Flatten(pairs)
	if len(flat) != 80 {
		t.Fatalf("flattened %d reads, want 80", len(flat))
	}
	text := g.String()
	for i, r := range flat {
		if !strings.Contains(text, r.String()) {
			t.Fatalf("flattened read %d not on the forward strand", i)
		}
	}
}
