package mapping

import (
	"testing"
	"testing/quick"

	"pimassembler/internal/dram"
	"pimassembler/internal/kmer"
	"pimassembler/internal/stats"
)

func TestDefaultLayoutFitsGeometry(t *testing.T) {
	g := dram.Default()
	l := DefaultLayout(g)
	if err := l.Validate(g); err != nil {
		t.Fatal(err)
	}
	// Paper budget: 32 value rows, 8 temp rows; all 1016 data rows used.
	if l.ValueRows != 32 || l.TempRows != 8 {
		t.Fatalf("value/temp rows %d/%d, paper uses 32/8", l.ValueRows, l.TempRows)
	}
	if total := l.KmerRows + l.ValueRows + l.TempRows + l.ReservedRows; total != g.DataRows() {
		t.Fatalf("layout covers %d rows, want %d", total, g.DataRows())
	}
}

func TestLayoutCounterCoverage(t *testing.T) {
	l := DefaultLayout(dram.Default())
	if l.CounterCapacity() < l.KmerRows {
		t.Fatalf("%d counters cannot cover %d k-mer slots", l.CounterCapacity(), l.KmerRows)
	}
	if l.CounterGroups() != 4 {
		t.Fatalf("counter groups %d, want 32/8 = 4", l.CounterGroups())
	}
}

func TestLayoutRegionsDisjoint(t *testing.T) {
	l := DefaultLayout(dram.Default())
	if !(l.KmerRow(l.KmerRows-1) < l.ValueBase() &&
		l.ValueBase()+l.ValueRows <= l.TempBase() &&
		l.TempBase()+l.TempRows <= l.ReservedBase()) {
		t.Fatal("regions overlap")
	}
}

func TestCounterLocation(t *testing.T) {
	l := DefaultLayout(dram.Default())
	base0, lane0 := l.CounterLocation(0)
	if base0 != l.ValueBase() || lane0 != 0 {
		t.Fatalf("slot 0 at (%d,%d)", base0, lane0)
	}
	base, lane := l.CounterLocation(256)
	if base != l.ValueBase()+l.CounterBits || lane != 0 {
		t.Fatalf("slot 256 at (%d,%d), want next group lane 0", base, lane)
	}
	base, lane = l.CounterLocation(300)
	if base != l.ValueBase()+l.CounterBits || lane != 44 {
		t.Fatalf("slot 300 at (%d,%d)", base, lane)
	}
}

func TestCounterLocationPanics(t *testing.T) {
	l := DefaultLayout(dram.Default())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	l.CounterLocation(l.KmerRows)
}

func TestHashPlacementInRange(t *testing.T) {
	l := DefaultLayout(dram.Default())
	p := NewHashPlacement(100, l)
	f := func(seed uint64) bool {
		sub, slot := p.Place(kmer.Kmer(seed))
		return sub >= 0 && sub < 100 && slot >= 0 && slot < l.KmerRows
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHashPlacementSpreadsLoad(t *testing.T) {
	l := DefaultLayout(dram.Default())
	p := NewHashPlacement(16, l)
	rng := stats.NewRNG(4)
	counts := make([]int, 16)
	const n = 16000
	for i := 0; i < n; i++ {
		sub, _ := p.Place(kmer.Kmer(rng.Uint64()))
		counts[sub]++
	}
	for i, c := range counts {
		if c < n/16/2 || c > n/16*2 {
			t.Fatalf("sub-array %d got %d of %d placements; load imbalance", i, c, n)
		}
	}
}

func TestReplicationMonotonicity(t *testing.T) {
	prevSpeed, prevPower := 0.0, 0.0
	for _, pd := range []int{1, 2, 4, 8} {
		r := DefaultReplication(pd)
		if r.Speedup() <= prevSpeed {
			t.Fatalf("speedup not increasing at Pd=%d", pd)
		}
		if r.PowerFactor() <= prevPower {
			t.Fatalf("power not increasing at Pd=%d", pd)
		}
		prevSpeed, prevPower = r.Speedup(), r.PowerFactor()
	}
	// Amdahl: speedup at Pd=8 must be well below 8.
	if s := DefaultReplication(8).Speedup(); s >= 6 {
		t.Fatalf("Pd=8 speedup %.2f lacks the serial-fraction penalty", s)
	}
	if DefaultReplication(1).Speedup() != 1 || DefaultReplication(1).PowerFactor() != 1 {
		t.Fatal("Pd=1 must be the identity")
	}
}

func TestPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewHashPlacement(0, DefaultLayout(dram.Default())) },
		func() { DefaultReplication(0) },
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
