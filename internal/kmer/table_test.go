package kmer

import (
	"cmp"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"pimassembler/internal/genome"
	"pimassembler/internal/stats"
)

func TestCountTablePaperExample(t *testing.T) {
	// Fig. 5b: S = CGTGCGTGCTT, k = 5 yields the hash table
	// CGTGC:2, GTGCG:1, TGCGT:1, GCGTG:1, GTGCT:1, TGCTT:1.
	s := genome.MustFromString("CGTGCGTGCTT")
	tbl := NewCountTable(5, 8)
	Iterate(s, 5, func(km Kmer) { tbl.Add(km) })
	want := map[string]uint32{
		"CGTGC": 2, "GTGCG": 1, "TGCGT": 1, "GCGTG": 1, "GTGCT": 1, "TGCTT": 1,
	}
	if tbl.Len() != len(want) {
		t.Fatalf("distinct %d, want %d", tbl.Len(), len(want))
	}
	for text, count := range want {
		if got := tbl.Count(MustParse(text)); got != count {
			t.Errorf("count(%s) = %d, want %d", text, got, count)
		}
	}
	if tbl.Count(MustParse("AAAAA")) != 0 {
		t.Error("absent k-mer has non-zero count")
	}
}

func TestCountTableGrowth(t *testing.T) {
	tbl := NewCountTable(16, 1)
	rng := stats.NewRNG(5)
	ref := make(map[Kmer]uint32)
	for i := 0; i < 5000; i++ {
		km := Kmer(rng.Uint64()) & Kmer(Mask(16))
		tbl.Add(km)
		ref[km]++
	}
	if tbl.Len() != len(ref) {
		t.Fatalf("distinct %d, want %d", tbl.Len(), len(ref))
	}
	for km, c := range ref {
		if got := tbl.Count(km); got != c {
			t.Fatalf("count %v = %d, want %d", km, got, c)
		}
	}
}

func TestCountTableAddReturnsNewCount(t *testing.T) {
	tbl := NewCountTable(4, 4)
	km := MustParse("ACGT")
	if tbl.Add(km) != 1 || tbl.Add(km) != 2 || tbl.Add(km) != 3 {
		t.Fatal("Add must return the updated frequency (New_freq of Fig. 5b)")
	}
}

func TestEntriesSorted(t *testing.T) {
	tbl := NewCountTable(8, 16)
	rng := stats.NewRNG(8)
	for i := 0; i < 100; i++ {
		tbl.Add(Kmer(rng.Uint64()) & Kmer(Mask(8)))
	}
	es := tbl.Entries()
	for i := 1; i < len(es); i++ {
		if es[i-1].Kmer >= es[i].Kmer {
			t.Fatal("entries not strictly sorted")
		}
	}
}

func TestCountReadsAgainstMap(t *testing.T) {
	rng := stats.NewRNG(9)
	g := genome.GenerateGenome(2000, rng)
	reads := genome.NewReadSampler(g, 80, 0, rng).Sample(40)
	k := 13
	tbl := CountReads(reads, k)
	ref := make(map[Kmer]uint32)
	for _, r := range reads {
		for _, km := range AppendKmers(nil, codesOf(r), k) {
			ref[km]++
		}
	}
	if tbl.Len() != len(ref) {
		t.Fatalf("distinct %d, want %d", tbl.Len(), len(ref))
	}
	for km, c := range ref {
		if tbl.Count(km) != c {
			t.Fatal("count mismatch vs reference map")
		}
	}
}

func TestSpectrumSumsToDistinct(t *testing.T) {
	rng := stats.NewRNG(10)
	g := genome.GenerateGenome(1000, rng)
	tbl := CountReads(genome.TilingReads(g, 100, 50), 15)
	spec := make(map[uint32]int64)
	tbl.Each(func(_ Kmer, c uint32) bool {
		spec[c]++
		return true
	})
	var total int64
	for _, n := range spec {
		total += n
	}
	if total != int64(tbl.Len()) {
		t.Fatalf("spectrum sums to %d, want %d", total, tbl.Len())
	}
	if spec[0] != 0 {
		t.Fatal("spectrum[0] must be empty")
	}
}

func TestFilterMinCount(t *testing.T) {
	tbl := NewCountTable(4, 4)
	a, b := MustParse("ACGT"), MustParse("TTTT")
	tbl.Add(a)
	tbl.Add(a)
	tbl.Add(b)
	kept := tbl.FilterMinCount(2)
	if len(kept) != 1 || kept[0].Kmer != a {
		t.Fatalf("filter kept %v", kept)
	}
}

// filterShapes are the table states filter's spare slot matters at: a
// table with nothing to keep, one at load ½, and ones whose last slot — the
// last filter writes — holds a k-mer every min keeps or one seen once, which
// min ≥ 2 drops.
var filterShapes = []string{"empty", "load ½", "last slot kept", "last slot dropped"}

// fillFilterShape counts codes into tbl, an empty 16-slot table, until it
// has shape filterShapes[shape], and adds what it counted, by whole k-mer,
// to counts.
func fillFilterShape[C code](t *testing.T, tbl *table[C], shape int, counts map[Kmer]uint32) {
	t.Helper()
	add := func(c C, times int) {
		for i := 0; i < times; i++ {
			tbl.addAll([]C{c})
		}
		counts[tbl.prefix|Kmer(c)] += uint32(times)
	}
	last := uint64(len(tbl.slots) - 1)
	switch shape {
	case 1:
		for c := C(1); tbl.n*2 < len(tbl.slots); c++ {
			times := int(c%3) + 1
			if (tbl.n+1)*2 >= len(tbl.slots) {
				times = 1 // one more add to a half-full table grows it
			}
			add(c, times)
		}
	case 2, 3:
		// The first code homed at the last slot lands there; three more
		// homed elsewhere cannot, the last slot being taken.
		c := C(1)
		for tbl.hash(c)&last != last {
			c++
		}
		times := 3 // kept by every min
		if shape == 3 {
			times = 1 // dropped by min ≥ 2
		}
		add(c, times)
		for times := 1; times <= 3; times++ {
			for c++; tbl.hash(c)&last == last; c++ {
			}
			add(c, times)
		}
	}
	ok := false
	switch lastCount := tbl.slots[last].Count; shape {
	case 0:
		ok = tbl.n == 0
	case 1:
		ok = tbl.n*2 == len(tbl.slots)
	case 2:
		ok = lastCount == 3
	case 3:
		ok = lastCount == 1
	}
	if !ok || len(tbl.slots) != 16 {
		t.Fatalf("%s: %d k-mers in %d slots, last count %d", filterShapes[shape], tbl.n, len(tbl.slots), tbl.slots[last].Count)
	}
}

// assertFilterMatchesMap compares FilterMinCount's entries with those of a
// map of every counted k-mer.
func assertFilterMatchesMap(t *testing.T, label string, got []Entry, counts map[Kmer]uint32, min uint32) {
	t.Helper()
	var want []Entry
	for km, c := range counts {
		if c >= min {
			want = append(want, Entry{km, c})
		}
	}
	slices.SortFunc(want, func(a, b Entry) int { return cmp.Compare(a.Kmer, b.Kmer) })
	if !slices.Equal(got, want) {
		t.Fatalf("%s, min %d: %d entries, map oracle %d (or they differ)", label, min, len(got), len(want))
	}
}

// reshapeBuckets replaces the first and the last four buckets of b with one
// table of each filter shape, in the map of counts too.
func reshapeBuckets[C code](t *testing.T, b *buckets[C], counts map[Kmer]uint32) {
	t.Helper()
	replaced := []int{0, 1, 2, 3, numBuckets - 4, numBuckets - 3, numBuckets - 2, numBuckets - 1}
	for km := range counts {
		if slices.Contains(replaced, int(km>>b.shift)) {
			delete(counts, km)
		}
	}
	for j, i := range replaced {
		b.tables[i] = table[C]{prefix: Kmer(i) << b.shift, slots: make([]slot[C], 16), pool: &b.pool}
		fillFilterShape(t, &b.tables[i], j%len(filterShapes), counts)
	}
}

// TestFilterMinCountMatchesMap pins FilterMinCount, whose filter writes one
// slot past the survivors it keeps, to a map oracle for min 0 to 3: on a
// CountTable and on empty and split BucketTables at both code widths, where
// the tables are each shape of filterShapes.
func TestFilterMinCountMatchesMap(t *testing.T) {
	const k = 16
	for shape, name := range filterShapes {
		counts := map[Kmer]uint32{}
		ct := &CountTable{k: k, table: table[Kmer]{slots: make([]Entry, 16)}}
		fillFilterShape(t, &ct.table, shape, counts)
		for min := uint32(0); min <= 3; min++ {
			assertFilterMatchesMap(t, "CountTable, "+name, ct.FilterMinCount(min), counts, min)
		}
	}
	for min := uint32(0); min <= 3; min++ {
		assertFilterMatchesMap(t, "empty BucketTable", NewBucketTable(k, 1).FilterMinCount(min), nil, min)
	}
	reads := countWorkload(41, 120_000, 101, 1_000, 0)
	for _, wide := range []bool{false, true} {
		bt := NewBucketTable(k, 2)
		if wide {
			bt.split = splitBuckets[Kmer]
		}
		addReads(bt, reads)
		bt.Len() // settles
		counts := map[Kmer]uint32{}
		for _, r := range reads {
			for _, km := range rollBases(r, k) {
				counts[km]++
			}
		}
		switch b := bt.cur.(type) {
		case *buckets[uint32]:
			reshapeBuckets(t, b, counts)
		case *buckets[Kmer]:
			reshapeBuckets(t, b, counts)
		default:
			t.Fatal("fixture never splits")
		}
		for min := uint32(0); min <= 3; min++ {
			assertFilterMatchesMap(t, fmt.Sprintf("BucketTable, 8-byte codes %v", wide), bt.FilterMinCount(min), counts, min)
		}
	}
}

// TestSpectrumUnderGrowth drives the table through several grow cycles
// (hint 1, thousands of inserts with heavy repetition) and checks the
// spectrum bucket by bucket against a reference map.
func TestSpectrumUnderGrowth(t *testing.T) {
	tbl := NewCountTable(12, 1)
	rng := stats.NewRNG(11)
	ref := make(map[Kmer]uint32)
	for i := 0; i < 20_000; i++ {
		km := Kmer(rng.Uint64()%3000) & Kmer(Mask(12))
		tbl.Add(km)
		ref[km]++
	}
	wantSpec := make(map[uint32]int64)
	for _, c := range ref {
		wantSpec[c]++
	}
	spec := make(map[uint32]int64)
	for _, e := range tbl.Entries() {
		spec[e.Count]++
	}
	if !reflect.DeepEqual(spec, wantSpec) {
		t.Fatalf("spectrum %v, want %v", spec, wantSpec)
	}
}

// TestEachEarlyTerminationUnderGrowth pins that Each stops exactly at the
// first false return — no further callbacks — on a table that has regrown
// several times, and that a full pass visits each entry exactly once.
func TestEachEarlyTerminationUnderGrowth(t *testing.T) {
	tbl := NewCountTable(10, 1)
	rng := stats.NewRNG(12)
	for i := 0; i < 5_000; i++ {
		tbl.Add(Kmer(rng.Uint64()) & Kmer(Mask(10)))
	}
	if tbl.Len() < 1000 {
		t.Fatalf("workload too small to force growth: %d distinct", tbl.Len())
	}
	seen := make(map[Kmer]int)
	tbl.Each(func(km Kmer, _ uint32) bool {
		seen[km]++
		return true
	})
	if len(seen) != tbl.Len() {
		t.Fatalf("full Each visited %d distinct, want %d", len(seen), tbl.Len())
	}
	for km, n := range seen {
		if n != 1 {
			t.Fatalf("entry %v visited %d times", km, n)
		}
	}
	for _, stop := range []int{1, 7, tbl.Len() / 2, tbl.Len()} {
		calls := 0
		tbl.Each(func(Kmer, uint32) bool {
			calls++
			return calls < stop
		})
		if calls != stop {
			t.Fatalf("early stop at %d made %d callbacks", stop, calls)
		}
	}
}

// TestFilterMinCountMatchesReference checks the preallocated filter against
// the naive filter-of-Entries on a grown table, for every threshold the
// spectrum contains (plus one past the maximum).
func TestFilterMinCountMatchesReference(t *testing.T) {
	tbl := NewCountTable(9, 1)
	rng := stats.NewRNG(13)
	for i := 0; i < 8_000; i++ {
		tbl.Add(Kmer(rng.Uint64()%600) & Kmer(Mask(9)))
	}
	all := tbl.Entries()
	var maxC uint32
	for _, e := range all {
		if e.Count > maxC {
			maxC = e.Count
		}
	}
	for min := uint32(0); min <= maxC+1; min++ {
		want := make([]Entry, 0)
		for _, e := range all {
			if e.Count >= min {
				want = append(want, e)
			}
		}
		got := tbl.FilterMinCount(min)
		if len(got) != len(want) {
			t.Fatalf("min=%d: %d survivors, want %d", min, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("min=%d: survivor %d is %+v, want %+v", min, i, got[i], want[i])
			}
		}
	}
}

// TestProbeOpsMonotone pins what ProbeOps prices: the Hashmap procedure's
// comparisons (Add), never the host's reads — Count, hit or miss, and
// FilterMinCount leave it where counting left it.
func TestProbeOpsMonotone(t *testing.T) {
	tbl := NewCountTable(8, 8)
	before := tbl.ProbeOps()
	tbl.Add(MustParse("ACGTACGT"))
	if tbl.ProbeOps() <= before {
		t.Fatal("probe counter must advance on Add")
	}
	mid := tbl.ProbeOps()
	if tbl.Count(MustParse("ACGTACGT")) != 1 || tbl.Count(MustParse("TTTTTTTT")) != 0 {
		t.Fatal("wrong counts")
	}
	if tbl.ProbeOps() != mid {
		t.Fatalf("lookups moved ProbeOps %d -> %d", mid, tbl.ProbeOps())
	}
	if es := tbl.FilterMinCount(1); len(es) != 1 || es[0] != (Entry{MustParse("ACGTACGT"), 1}) {
		t.Fatalf("wrong entries %v", es)
	}
	if tbl.ProbeOps() != mid {
		t.Fatalf("reading entries moved ProbeOps %d -> %d", mid, tbl.ProbeOps())
	}
}

// Property: table counts always match a reference map.
func TestCountTableProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		k := 1 + rng.Intn(MaxK)
		tbl := NewCountTable(k, 4)
		ref := make(map[Kmer]uint32)
		// Draw from a small keyspace to force collisions and repeats.
		for i := 0; i < 300; i++ {
			km := Kmer(rng.Uint64()%32) & Kmer(Mask(k))
			tbl.Add(km)
			ref[km]++
		}
		if tbl.Len() != len(ref) {
			return false
		}
		for km, c := range ref {
			if tbl.Count(km) != c {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestCountReadsCapacityTracksDistinct: the table is sized by the distinct
// k-mers it holds, not by how often they occur — at 10× coverage the old
// occurrence-based pre-size allocated ~32 slots per distinct k-mer.
func TestCountReadsCapacityTracksDistinct(t *testing.T) {
	rng := stats.NewRNG(21)
	g := genome.GenerateGenome(50_000, rng)
	reads := genome.NewReadSampler(g, 101, 0, rng).Sample(5_000) // 10× coverage
	for _, k := range []int{16, 32} {
		tbl := CountReads(reads, k)
		if got, max := len(tbl.slots), 4*tbl.Len(); got > max {
			t.Errorf("k=%d: capacity %d for %d distinct k-mers, want at most %d", k, got, tbl.Len(), max)
		}
		if 2*tbl.Len() > len(tbl.slots) {
			t.Errorf("k=%d: load factor above ½: %d entries in %d slots", k, tbl.Len(), len(tbl.slots))
		}
	}
}

// TestAddReadIsTheAddLoop: the batched AddCodes/addAll that CountReads runs
// per read leave exactly the table — slot for slot, probe for probe — that
// one Add per k-mer of the base-by-base roll leaves, across batch
// boundaries, table growth inside a batch, and reads shorter than k.
func TestAddReadIsTheAddLoop(t *testing.T) {
	rng := stats.NewRNG(22)
	g := genome.GenerateGenome(3_000, rng)
	for _, k := range []int{4, 16, 32} {
		var reads []*genome.Sequence
		for _, n := range []int{1, k - 1, k, k + addBatch - 2, k + addBatch - 1, k + addBatch, 700} {
			reads = append(reads, genome.NewReadSampler(g, n, 0, rng).Sample(3)...)
		}
		want := NewCountTable(k, 0)
		for _, r := range reads {
			for _, km := range rollBases(r, k) {
				want.Add(km)
			}
		}
		got := CountReads(reads, k)
		if got.ProbeOps() != want.ProbeOps() || got.Len() != want.Len() {
			t.Fatalf("k=%d: batched table has %d entries after %d probes, plain loop %d after %d",
				k, got.Len(), got.ProbeOps(), want.Len(), want.ProbeOps())
		}
		if !reflect.DeepEqual(got.slots, want.slots) {
			t.Fatalf("k=%d: slot layout differs from the plain Add loop", k)
		}
	}
}

// TestTableCapacitySizing is the regression test for the capacity-sizing
// overflow: the old doubling loop compared against hint*2, which wraps
// negative for hints above MaxInt/2 and then spins forever (capacity
// eventually overflows to 0 and 0 *= 2 never terminates). tableCapacity
// must terminate and stay a power of two for every hint.
func TestTableCapacitySizing(t *testing.T) {
	cases := []struct {
		hint, want int
	}{
		{-5, 16},
		{0, 16},
		{8, 16},
		{9, 32},
		{16, 32},
		{17, 64},
		{1 << 20, 1 << 21},
	}
	for _, c := range cases {
		if got := tableCapacity(c.hint); got != c.want {
			t.Errorf("tableCapacity(%d) = %d, want %d", c.hint, got, c.want)
		}
	}

	// Huge hints must terminate (the regression) and still return a
	// positive power of two. (The old loop compared capacity < hint*2, so
	// any hint above MaxInt/2 wrapped the bound negative, capacity doubled
	// to zero, and 0 *= 2 spun forever.)
	for _, hint := range []int{math.MaxInt, math.MaxInt / 2, math.MaxInt/2 + 1, math.MaxInt / 4} {
		got := tableCapacity(hint)
		if got <= 0 || got&(got-1) != 0 {
			t.Fatalf("tableCapacity(%d) = %d, not a positive power of two", hint, got)
		}
	}
}
