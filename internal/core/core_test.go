package core

import (
	"errors"
	"testing"

	"pimassembler/internal/dram"
	"pimassembler/internal/genome"
	"pimassembler/internal/kmer"
	"pimassembler/internal/stats"
)

func TestNewPlatformValidates(t *testing.T) {
	g := dram.Default()
	g.ActiveBanks = 0
	if _, err := NewPlatform(g, dram.DefaultTiming(), dram.DefaultEnergy()); err == nil {
		t.Fatal("invalid geometry accepted")
	}
	tm := dram.DefaultTiming()
	tm.TRAS = 1
	if _, err := NewPlatform(dram.Default(), tm, dram.DefaultEnergy()); err == nil {
		t.Fatal("invalid timing accepted")
	}
}

func TestPlatformLazySubarrays(t *testing.T) {
	p := NewDefaultPlatform()
	if len(p.subs) != 0 {
		t.Fatal("fresh platform has materialised sub-arrays")
	}
	s1 := p.Subarray(5)
	s2 := p.Subarray(5)
	if s1 != s2 {
		t.Fatal("Subarray not idempotent")
	}
	if len(p.subs) != 1 {
		t.Fatal("materialisation count wrong")
	}
	p.Reset()
	if len(p.subs) != 0 || p.Summarize().Commands != 0 {
		t.Fatal("reset incomplete")
	}
}

func TestPlatformSubarrayRangePanic(t *testing.T) {
	p := NewDefaultPlatform()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	p.Subarray(p.Geometry().TotalSubarrays())
}

func TestHashTableMatchesSoftwareReference(t *testing.T) {
	p := NewDefaultPlatform()
	rng := stats.NewRNG(42)
	g := genome.GenerateGenome(600, rng)
	reads := genome.TilingReads(g, 60, 30)
	k := 13

	pim := NewHashTableAt(p, k, 0, 4)
	ref := kmer.NewCountTable(k, 1024)
	for _, r := range reads {
		kmer.Iterate(r, k, func(km kmer.Kmer) {
			if _, err := pim.Add(km); err != nil {
				t.Fatal(err)
			}
			ref.Add(km)
		})
	}
	if pim.Len() != ref.Len() {
		t.Fatalf("distinct: PIM %d, reference %d", pim.Len(), ref.Len())
	}
	// Entries read back from DRAM rows must match the software table.
	pimEntries := pim.Entries()
	refEntries := ref.Entries()
	if len(pimEntries) != len(refEntries) {
		t.Fatalf("entry counts differ: %d vs %d", len(pimEntries), len(refEntries))
	}
	for i := range refEntries {
		if pimEntries[i].Kmer != refEntries[i].Kmer {
			t.Fatalf("entry %d k-mer mismatch: %v vs %v", i, pimEntries[i].Kmer, refEntries[i].Kmer)
		}
		if pimEntries[i].Count != refEntries[i].Count {
			t.Fatalf("entry %d (%s) count %d, want %d",
				i, refEntries[i].Kmer.String(k), pimEntries[i].Count, refEntries[i].Count)
		}
	}
}

func TestHashTableCount(t *testing.T) {
	p := NewDefaultPlatform()
	tbl := NewHashTableAt(p, 8, 0, 2)
	km := kmer.MustParse("ACGTACGT")
	if got := tbl.Entries(); len(got) != 0 {
		t.Fatalf("empty table reads back %v", got)
	}
	for i := 0; i < 5; i++ {
		if _, err := tbl.Add(km); err != nil {
			t.Fatal(err)
		}
	}
	if got := tbl.Entries(); len(got) != 1 || got[0] != (kmer.Entry{Kmer: km, Count: 5}) {
		t.Fatalf("entries %v, want one k-mer counted 5 times", got)
	}
}

func TestHashTableInsertedFlag(t *testing.T) {
	p := NewDefaultPlatform()
	tbl := NewHashTableAt(p, 6, 0, 1)
	km := kmer.MustParse("ACGTAC")
	ins, err := tbl.Add(km)
	if err != nil || !ins {
		t.Fatalf("first Add: inserted=%v err=%v", ins, err)
	}
	ins, err = tbl.Add(km)
	if err != nil || ins {
		t.Fatalf("second Add: inserted=%v err=%v", ins, err)
	}
}

func TestHashTableUsesPIMOps(t *testing.T) {
	p := NewDefaultPlatform()
	tbl := NewHashTableAt(p, 10, 0, 1)
	rng := stats.NewRNG(7)
	for i := 0; i < 50; i++ {
		if _, err := tbl.Add(kmer.Kmer(rng.Uint64()) & kmer.Kmer(kmer.Mask(10))); err != nil {
			t.Fatal(err)
		}
	}
	m := p.Summarize().Histogram.Totals
	if m[dram.CmdAAP2] == 0 {
		t.Error("no PIM_XNOR issued: comparisons must be in-memory")
	}
	if m[dram.CmdAAP3] == 0 {
		t.Error("no TRA issued: counter increments must be in-memory")
	}
	if m[dram.CmdAAPCopy] == 0 {
		t.Error("no RowClone issued: staging must be in-memory")
	}
	if m[dram.CmdDPU] == 0 {
		t.Error("no DPU reductions issued: match detection must be metered")
	}
}

func TestHashTablePanics(t *testing.T) {
	p := NewDefaultPlatform()
	total := p.Geometry().TotalSubarrays()
	for _, f := range []func(){
		func() { NewHashTableAt(p, 0, 0, 1) },
		func() { NewHashTableAt(p, 33, 0, 1) },
		func() { NewHashTableAt(p, 8, 0, 0) },
		func() { NewHashTableAt(p, 8, 0, total+1) },
		func() { NewHashTableAt(p, 8, -1, 2) },
		func() { NewHashTableAt(p, 8, total-3, 4) },
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

func TestHashTableFull(t *testing.T) {
	// Shrink the geometry so the k-mer region is tiny and fills up.
	g := dram.Default()
	g.RowsPerSubarray = 64 // data rows 56; k-mer region 56-48 = 8
	p, err := NewPlatform(g, dram.DefaultTiming(), dram.DefaultEnergy())
	if err != nil {
		t.Fatal(err)
	}
	tbl := NewHashTableAt(p, 8, 0, 1)
	rng := stats.NewRNG(3)
	sawFull := false
	for i := 0; i < 1000; i++ {
		if _, err := tbl.Add(kmer.Kmer(rng.Uint64()) & kmer.Kmer(kmer.Mask(8))); err != nil {
			if !errors.Is(err, ErrTableFull) {
				t.Fatalf("unexpected error %v", err)
			}
			sawFull = true
			break
		}
	}
	if !sawFull {
		t.Fatal("tiny table never filled")
	}
}

// TestEndToEndOpProfileCosts is the application-level ablation: building
// the same k-mer table with the native single-cycle XNOR vs the
// majority-emulated profile must produce identical entries while the
// emulated command stream costs several times more — the functional
// counterpart of the Fig. 9 PIM ratios.
func TestEndToEndOpProfileCosts(t *testing.T) {
	rng := stats.NewRNG(9)
	distinct := make([]kmer.Kmer, 150)
	for i := range distinct {
		distinct[i] = kmer.Kmer(rng.Uint64()) & kmer.Kmer(kmer.Mask(16))
	}
	// Repeat-heavy stream (coverage ~6x): most Adds hit an existing entry
	// and exercise the comparison path, as genome workloads do.
	var kms []kmer.Kmer
	for round := 0; round < 6; round++ {
		kms = append(kms, distinct...)
	}
	build := func(majorityXNOR bool) ([]kmer.Entry, float64) {
		p := NewDefaultPlatform()
		tbl := NewHashTableAt(p, 16, 0, 8)
		tbl.majorityXNOR = majorityXNOR
		for _, km := range kms {
			if _, err := tbl.Add(km); err != nil {
				t.Fatal(err)
			}
		}
		return tbl.Entries(), p.Summarize().SerialLatencyNS
	}
	nativeEntries, nativeNS := build(false)
	emuEntries, emuNS := build(true)
	if len(nativeEntries) != len(emuEntries) {
		t.Fatalf("entry counts differ: %d vs %d", len(nativeEntries), len(emuEntries))
	}
	for i := range nativeEntries {
		if nativeEntries[i] != emuEntries[i] {
			t.Fatalf("entry %d differs between profiles", i)
		}
	}
	// The comparison path costs 6x more per probe under emulation, but the
	// counter increment (shared by both profiles) dominates an Add — so the
	// end-to-end gap is real yet bounded, mirroring how the paper's 7x raw
	// cycle advantage compresses to 2.9x on the full pipeline.
	ratio := emuNS / nativeNS
	if ratio < 1.05 || ratio > 3 {
		t.Fatalf("emulated/native latency ratio %.2f outside the plausible band", ratio)
	}
}
