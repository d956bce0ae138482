package kmer

import (
	"reflect"
	"testing"
	"testing/quick"

	"pimassembler/internal/genome"
	"pimassembler/internal/stats"
)

func TestParseStringRoundTrip(t *testing.T) {
	for _, s := range []string{"A", "ACGT", "TTTTTTTT", "CGTGC", "ACGTACGTACGTACGTACGTACGTACGTACGT"} {
		km, err := Parse(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := km.String(len(s)); got != s {
			t.Fatalf("round trip %q -> %q", s, got)
		}
	}
}

func TestParseRejects(t *testing.T) {
	if _, err := Parse(""); err == nil {
		t.Fatal("empty accepted")
	}
	if _, err := Parse("ACGTN"); err == nil {
		t.Fatal("N accepted")
	}
	if _, err := Parse("ACGTACGTACGTACGTACGTACGTACGTACGTA"); err == nil {
		t.Fatal("33-mer accepted")
	}
}

func TestPrefixSuffix(t *testing.T) {
	// Fig. 5c: node_1 = k_mer[0..k-2], node_2 = k_mer[1..k-1].
	km := MustParse("CGTGC")
	if got := km.Prefix(5).String(4); got != "CGTG" {
		t.Fatalf("prefix %q, want CGTG", got)
	}
	if got := km.Suffix(5).String(4); got != "GTGC" {
		t.Fatalf("suffix %q, want GTGC", got)
	}
}

func TestExtendInvertsPrefix(t *testing.T) {
	km := MustParse("ACGTAGG")
	k := 7
	rebuilt := km.Prefix(k).Extend(k, km.LastBase(k))
	if rebuilt != km {
		t.Fatalf("Extend(Prefix) != identity: %q vs %q", rebuilt.String(k), km.String(k))
	}
}

func TestFirstLastBase(t *testing.T) {
	km := MustParse("GATTC")
	if km.Base(0) != genome.G || km.LastBase(5) != genome.C {
		t.Fatal("first/last base wrong")
	}
}

func TestIterateMatchesExtract(t *testing.T) {
	rng := stats.NewRNG(3)
	s := genome.GenerateGenome(300, rng)
	k := 21
	kms := AppendKmers(nil, codesOf(s), k)
	if len(kms) != s.Len()-k+1 {
		t.Fatalf("extracted %d k-mers, want %d", len(kms), s.Len()-k+1)
	}
	// Rolling extraction must equal direct packing at every offset.
	for i, km := range kms {
		want := packBases(s, i, k)
		if km != want {
			t.Fatalf("k-mer %d: rolling %q != direct %q", i, km.String(k), want.String(k))
		}
	}
}

// TestAppendKmersMatchesIterate pins the code roll behind AppendKmers and
// Iterate to the per-base one (rollBases): same k-mers in the same order for
// every k, for sequences shorter than k, exactly k and longer, appended after
// whatever dst already holds.
func TestAppendKmersMatchesIterate(t *testing.T) {
	rng := stats.NewRNG(17)
	g := genome.GenerateGenome(200, rng)
	for k := 1; k <= MaxK; k++ {
		for n := 0; n <= k+9; n++ {
			s := g.Subsequence(n, n)
			want := append([]Kmer{42}, rollBases(s, k)...)
			if got := AppendKmers([]Kmer{42}, codesOf(s), k); !reflect.DeepEqual(got, want) {
				t.Fatalf("k=%d len=%d: AppendKmers %v, base-by-base roll %v", k, n, got, want)
			}
			iterated := []Kmer{42}
			Iterate(s, k, func(km Kmer) { iterated = append(iterated, km) })
			if !reflect.DeepEqual(iterated, want) {
				t.Fatalf("k=%d len=%d: Iterate %v, base-by-base roll %v", k, n, iterated, want)
			}
		}
	}
}

// TestIterateAcrossChunks checks Iterate on sequences that end on either
// side of its iterChunk-base unpack windows against the per-base roll, and
// that no length allocates: a 101 bp read, a 250 bp read and a 10 kbp contig
// all unpack into Iterate's stack buffer.
func TestIterateAcrossChunks(t *testing.T) {
	rng := stats.NewRNG(29)
	g := genome.GenerateGenome(3*iterChunk+2, rng)
	for _, k := range []int{1, 2, 16, 31, 32} {
		for _, n := range []int{iterChunk - 1, iterChunk, iterChunk + 1, iterChunk + k, 2*iterChunk - 1, 2 * iterChunk, 3*iterChunk + 2} {
			s := g.Subsequence(0, n)
			var got []Kmer
			Iterate(s, k, func(km Kmer) { got = append(got, km) })
			if want := rollBases(s, k); !reflect.DeepEqual(got, want) {
				t.Fatalf("k=%d len=%d: Iterate yielded %d k-mers, base-by-base roll %d (or they differ)", k, n, len(got), len(want))
			}
		}
	}
	for _, n := range []int{101, 250, 10_000} {
		s := genome.GenerateGenome(n, rng)
		count := 0
		if allocs := testing.AllocsPerRun(10, func() { Iterate(s, 21, func(Kmer) { count++ }) }); allocs != 0 {
			t.Errorf("len=%d: Iterate allocated %.1f times per call, want 0", n, allocs)
		}
	}
}

func TestExtractShortSequence(t *testing.T) {
	s := genome.MustFromString("ACG")
	if got := AppendKmers(nil, codesOf(s), 5); got != nil {
		t.Fatalf("short sequence yielded %v", got)
	}
}

// codesOf returns r's bases as 2-bit codes, one byte per base: the form a
// genome.ReadSource lends them in.
func codesOf(r *genome.Sequence) []byte { return r.AppendCodes(nil) }

// packBases packs bases [from, from+k) of s into a Kmer one base at a time:
// the direct packing the rolled k-mers are checked against.
func packBases(s *genome.Sequence, from, k int) Kmer {
	var km Kmer
	for i := 0; i < k; i++ {
		km |= Kmer(s.Base(from+i)) << (2 * uint(i))
	}
	return km
}

// rollBases is the rolling window over s one bounds-checked Base call at a
// time, independent of codeRoller: the oracle for every code-fed roll.
func rollBases(s *genome.Sequence, k int) []Kmer {
	if s.Len() < k {
		return nil
	}
	km := packBases(s, 0, k)
	out := []Kmer{km}
	for i := k; i < s.Len(); i++ {
		km = km>>2 | Kmer(s.Base(i))<<(2*uint(k-1))
		out = append(out, km)
	}
	return out
}

// toSequence expands a k-mer base by base: the inverse packBases is checked
// against.
func toSequence(km Kmer, k int) *genome.Sequence {
	s := genome.NewSequence(k)
	for i := 0; i < k; i++ {
		s.SetBase(i, km.Base(i))
	}
	return s
}

func TestToSequenceRoundTrip(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		k := 1 + rng.Intn(MaxK)
		km := Kmer(rng.Uint64()) & Kmer(Mask(k))
		return packBases(toSequence(km, k), 0, k) == km
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMask(t *testing.T) {
	if Mask(1) != 3 || Mask(2) != 15 {
		t.Fatal("small masks wrong")
	}
	if Mask(32) != ^uint64(0) {
		t.Fatal("full mask wrong")
	}
}

func TestHashDistribution(t *testing.T) {
	// Adjacent k-mers must not collide in the low bits used for slotting.
	seen := make(map[uint64]int)
	for i := 0; i < 4096; i++ {
		h := Kmer(i).Hash() & 1023
		seen[h]++
	}
	for h, c := range seen {
		if c > 20 { // expectation 4, generous bound
			t.Fatalf("hash bucket %d has %d entries; poor mixing", h, c)
		}
	}
}

func TestCheckKPanics(t *testing.T) {
	for _, k := range []int{0, -1, 33} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("k=%d accepted", k)
				}
			}()
			Mask(k)
		}()
	}
}
