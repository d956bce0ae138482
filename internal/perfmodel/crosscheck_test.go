package perfmodel

import (
	"math"
	"testing"

	"pimassembler/internal/core"
	"pimassembler/internal/dram"
	"pimassembler/internal/kmer"
	"pimassembler/internal/mapping"
	"pimassembler/internal/platforms"
	"pimassembler/internal/stats"
)

// Cross-tier validation: the analytical hashmap cost formula must agree
// with what the functional simulator actually meters for the same workload.
// The model's IncCyclesPerBit assumes the controller's increment
// µprogram writes the new counter bit straight from the sense amplifier
// (7 slots/bit); the functional implementation conservatively stages
// through a scratch row (8 slots/bit), so the functional count is allowed
// to sit up to ~15 % above the model but never below it.
func TestHashmapCostFormulaMatchesFunctionalSimulator(t *testing.T) {
	p := core.NewDefaultPlatform()
	tbl := core.NewHashTableAt(p, 16, 0, 8)
	rng := stats.NewRNG(99)

	// Repeat-heavy stream, as in real coverage.
	distinct := make([]kmer.Kmer, 300)
	for i := range distinct {
		distinct[i] = kmer.Kmer(rng.Uint64()) & kmer.Kmer(kmer.Mask(16))
	}
	adds := 0
	probes := int64(0)
	for round := 0; round < 4; round++ {
		for _, km := range distinct {
			if _, err := tbl.Add(km); err != nil {
				t.Fatal(err)
			}
			adds++
		}
	}
	sum := p.Summarize()
	// Functional modeled latency per Add (the serial time prices each
	// command at its own duration; the formula prices everything in
	// AAP-cycle equivalents, so latency is the common currency).
	nsPerAdd := sum.SerialLatencyNS / float64(adds)

	// Measured probes per Add: every DPU op is one occupied-slot match
	// test; empty-slot hits don't compare. The model's AvgProbes counts
	// comparisons, so derive it the same way.
	probes = sum.Histogram.Totals[dram.CmdDPU]
	avgProbes := float64(probes) / float64(adds)

	lay := mapping.DefaultLayout(p.Geometry())
	formula := HashmapAAPsPerAdd(platforms.PIMAssembler(), lay.CounterBits, avgProbes)
	modelNS := formula * platforms.AAPLatencyNS()

	// The functional implementation stages the increment through a scratch
	// row (one extra RowClone per counter bit) that the model's optimized
	// controller µprogram elides, so the functional latency may run up to
	// ~15 % above the model but never below.
	ratio := nsPerAdd / modelNS
	if ratio < 0.98 || ratio > 1.15 {
		t.Fatalf("functional %.0f ns/Add vs model %.0f ns (ratio %.3f): tiers diverged",
			nsPerAdd, modelNS, ratio)
	}
}

// The functional increment cost itself must match first principles exactly:
// RippleIncrement issues, per counter bit, 6 RowClones + 1 XOR AAP + 1 TRA,
// plus a zero write and the carry seed copy.
func TestRippleIncrementCostExact(t *testing.T) {
	p := core.NewDefaultPlatform()
	tbl := core.NewHashTableAt(p, 16, 0, 1)
	// One insert into an empty table: 1 temp write + 1 RowClone (insert,
	// no comparisons) + 1 one-hot write + increment.
	if _, err := tbl.Add(kmer.MustParse("ACGTACGTACGTACGT")); err != nil {
		t.Fatal(err)
	}
	m := p.Summarize().Histogram.Totals
	bits := mapping.DefaultLayout(p.Geometry()).CounterBits

	wantWrites := int64(2 + 1)          // temp query + one-hot + zero row
	wantCopies := int64(1 + 1 + 6*bits) // insert clone + carry seed + per-bit staging
	wantAAP2 := int64(bits)             // XOR per bit
	wantAAP3 := int64(bits)             // TRA-AND per bit
	if m[dram.CmdWrite] != wantWrites {
		t.Errorf("writes %d, want %d", m[dram.CmdWrite], wantWrites)
	}
	if m[dram.CmdAAPCopy] != wantCopies {
		t.Errorf("copies %d, want %d", m[dram.CmdAAPCopy], wantCopies)
	}
	if m[dram.CmdAAP2] != wantAAP2 {
		t.Errorf("AAP2 %d, want %d", m[dram.CmdAAP2], wantAAP2)
	}
	if m[dram.CmdAAP3] != wantAAP3 {
		t.Errorf("AAP3 %d, want %d", m[dram.CmdAAP3], wantAAP3)
	}
}

// The per-bit addition cycle count of the analytical model (AddCyclesPerBit
// = 6 for P-A) must equal the functional BitSerialAdd's slots per bit.
func TestBitSerialAddCyclesMatchModel(t *testing.T) {
	p := core.NewDefaultPlatform()
	s := p.Subarray(0)
	const m = 16
	s.BitSerialAdd(0, 100, 200, 300, m)
	// Remove the fixed setup (zero write, latch reset, carry seed copy,
	// final carry copy).
	slots := float64(p.Summarize().Commands-4) / float64(m)
	want := platforms.PIMAssembler().AddCyclesPerBit
	if math.Abs(slots-want) > 0.01 {
		t.Fatalf("functional add %.2f slots/bit, model says %.0f", slots, want)
	}
}
