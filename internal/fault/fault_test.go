package fault

import (
	"math"
	"testing"

	"pimassembler/internal/bitvec"
	"pimassembler/internal/core"
	"pimassembler/internal/dram"
	"pimassembler/internal/kmer"
	"pimassembler/internal/stats"
	"pimassembler/internal/subarray"
)

func newSub() *subarray.Subarray {
	return subarray.New(dram.Default(), dram.NewMeter(dram.DefaultTiming(), dram.DefaultEnergy()))
}

func randomRow(rng *stats.RNG, n int) *bitvec.Vector {
	v := bitvec.New(n)
	for i := 0; i < n; i++ {
		v.Set(i, rng.Float64() < 0.5)
	}
	return v
}

func TestZeroRateIsTransparent(t *testing.T) {
	s := newSub()
	in := NewInjector(Rates{}, stats.NewRNG(1))
	s.SetFaultHook(in.Hook())
	rng := stats.NewRNG(2)
	a, b := randomRow(rng, 256), randomRow(rng, 256)
	s.Poke(0, a)
	s.Poke(1, b)
	s.XNOR(0, 1, 2)
	want := bitvec.New(256)
	want.Xnor(a, b)
	if !s.Peek(2).Equal(want) {
		t.Fatal("zero-rate injector corrupted a result")
	}
	if in.FlippedBits != 0 || in.AffectedOps != 0 {
		t.Fatal("zero-rate injector reported flips")
	}
	if in.TotalOps != 1 {
		t.Fatalf("observed %d ops, want 1", in.TotalOps)
	}
}

func TestInjectionRateObserved(t *testing.T) {
	s := newSub()
	const rate = 0.01
	in := NewInjector(Rates{TwoRow: rate, TRA: rate}, stats.NewRNG(3))
	s.SetFaultHook(in.Hook())
	rng := stats.NewRNG(4)
	s.Poke(0, randomRow(rng, 256))
	s.Poke(1, randomRow(rng, 256))
	const ops = 400
	for i := 0; i < ops; i++ {
		s.XNOR(0, 1, 2)
	}
	got := float64(in.FlippedBits) / float64(ops*256)
	if math.Abs(got-rate)/rate > 0.25 {
		t.Fatalf("observed flip rate %.4f vs configured %.4f", got, rate)
	}
	if in.AffectedOps == 0 {
		t.Fatal("no affected ops at a 1% bit rate over 256-bit rows")
	}
}

func TestMechanismSpecificRates(t *testing.T) {
	s := newSub()
	// TRA faults only: two-row results stay clean.
	in := NewInjector(Rates{TRA: 0.5}, stats.NewRNG(5))
	s.SetFaultHook(in.Hook())
	rng := stats.NewRNG(6)
	a, b := randomRow(rng, 256), randomRow(rng, 256)
	s.Poke(0, a)
	s.Poke(1, b)
	s.XNOR(0, 1, 2)
	want := bitvec.New(256)
	want.Xnor(a, b)
	if !s.Peek(2).Equal(want) {
		t.Fatal("two-row op corrupted despite TRA-only rates")
	}
	// A TRA now must flip ~half the bits.
	x1, x2, x3 := s.ComputeRow(0), s.ComputeRow(1), s.ComputeRow(2)
	s.Poke(x1, a)
	s.Poke(x2, a)
	s.Poke(x3, a)
	s.TRACarry(x1, x2, x3, 3)
	if s.Peek(3).Equal(a) {
		t.Fatal("TRA result unchanged at 50% flip rate")
	}
}

func TestRatesFromVariationMonotone(t *testing.T) {
	low := RatesFromVariation(0.05, 2000, 7)
	high := RatesFromVariation(0.30, 2000, 7)
	if low.TRA > 0.001 || low.TwoRow > 0.001 {
		t.Fatalf("±5%% variation should be error-free, got %+v", low)
	}
	if high.TRA <= low.TRA || high.TwoRow <= low.TwoRow {
		t.Fatalf("rates not increasing with variation: %+v vs %+v", low, high)
	}
	if high.TRA < high.TwoRow {
		t.Fatal("TRA must fail at least as often as two-row")
	}
}

func TestValidateRejectsBadRates(t *testing.T) {
	for _, r := range []Rates{{TwoRow: -0.1}, {TRA: 1.5}} {
		if err := r.Validate(); err == nil {
			t.Fatalf("rates %+v accepted", r)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NewInjector accepted bad rates")
		}
	}()
	NewInjector(Rates{TwoRow: 2}, stats.NewRNG(1))
}

// End-to-end reliability study: at the paper's safe corner (±5 %) the PIM
// hash table is exact; at an aggressive corner the injected faults corrupt
// stored counts or keys — the failure the two-row mechanism's margin
// prevents in practice.
func TestHashTableUnderVariation(t *testing.T) {
	build := func(rates Rates) (exactKeys bool, exactCounts bool) {
		p := core.NewDefaultPlatform()
		rng := stats.NewRNG(8)
		in := NewInjector(rates, stats.NewRNG(9))
		tbl := core.NewHashTableAt(p, 12, 0, 4)
		// Attach the hook to every sub-array the table will touch.
		for i := 0; i < 4; i++ {
			p.Subarray(i).SetFaultHook(in.Hook())
		}
		ref := make(map[kmer.Kmer]uint32)
		for i := 0; i < 300; i++ {
			km := kmer.Kmer(rng.Uint64()) & kmer.Kmer(kmer.Mask(12))
			if _, err := tbl.Add(km); err != nil {
				return false, false
			}
			ref[km]++
		}
		entries := tbl.Entries()
		if len(entries) != len(ref) {
			return false, false
		}
		exactKeys, exactCounts = true, true
		for _, e := range entries {
			want, ok := ref[e.Kmer]
			if !ok {
				exactKeys = false
				continue
			}
			if e.Count != want {
				exactCounts = false
			}
		}
		return exactKeys, exactCounts
	}

	keys, counts := build(RatesFromVariation(0.05, 2000, 10))
	if !keys || !counts {
		t.Fatal("±5% corner corrupted the hash table; Table I says it is error-free")
	}
	keys, counts = build(Rates{TwoRow: 0.02, TRA: 0.05})
	if keys && counts {
		t.Fatal("aggressive fault rates left the table untouched; injection ineffective")
	}
}
