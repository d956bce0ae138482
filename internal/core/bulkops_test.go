package core

import (
	"reflect"
	"testing"

	"pimassembler/internal/bitvec"
	"pimassembler/internal/parallel"
	"pimassembler/internal/stats"
)

func randomBulkOperand(rng *stats.RNG, n int) *bitvec.Vector {
	v := bitvec.New(n)
	for i := 0; i < n; i++ {
		v.Set(i, rng.Float64() < 0.5)
	}
	return v
}

// meterEqual asserts exact equality — including the floating-point latency
// and energy sums, and the recorded command stream, all of which the ordered
// region merge keeps bit-identical regardless of worker count.
func meterEqual(t *testing.T, workers int, serial, par *Platform) {
	t.Helper()
	sm, pm := serial.Meter(), par.Meter()
	if sm.LatencyNS != pm.LatencyNS || sm.EnergyPJ != pm.EnergyPJ {
		t.Fatalf("workers=%d: meter totals diverged: latency %v vs %v ns, energy %v vs %v pJ",
			workers, sm.LatencyNS, pm.LatencyNS, sm.EnergyPJ, pm.EnergyPJ)
	}
	if sm.Counts != pm.Counts {
		t.Fatalf("workers=%d: per-kind counts %v vs %v", workers, pm.Counts, sm.Counts)
	}
	if !reflect.DeepEqual(serial.Stream().Commands(), par.Stream().Commands()) {
		t.Fatalf("workers=%d: recorded stream diverged from the one-worker run's", workers)
	}
}

// TestBulkXNORParallelMatchesSerial pins the determinism contract: the bulk
// fan-out must produce the identical digital result and identical meter
// totals for any worker count, because chunk->sub-array assignment, RNG-free
// data flow, and the ordered meter merge are all scheduling-independent.
func TestBulkXNORParallelMatchesSerial(t *testing.T) {
	defer parallel.SetWorkers(0)
	rng := stats.NewRNG(41)
	serial := NewDefaultPlatform()
	n := serial.BulkPad(50 * serial.Geometry().RowBits())
	a := randomBulkOperand(rng, n)
	b := randomBulkOperand(rng, n)

	parallel.SetWorkers(1)
	want := serial.BulkXNOR(a, b)

	for _, workers := range []int{2, 4, 8} {
		parallel.SetWorkers(workers)
		par := NewDefaultPlatform()
		got := par.BulkXNOR(a, b)
		if !got.Equal(want) {
			t.Fatalf("workers=%d: result diverged from serial", workers)
		}
		meterEqual(t, workers, serial, par)
	}
}

// TestBulkSubarrayStateMatchesSerial checks the final cell state of every
// touched sub-array is worker-count independent: each chunk lands on the
// same sub-array (chunk mod active) under any schedule, so the last chunk
// written to a sub-array — and hence its residual rows — is fixed.
func TestBulkSubarrayStateMatchesSerial(t *testing.T) {
	defer parallel.SetWorkers(0)
	rng := stats.NewRNG(43)
	serial := NewDefaultPlatform()
	n := serial.BulkPad(30 * serial.Geometry().RowBits())
	a := randomBulkOperand(rng, n)
	b := randomBulkOperand(rng, n)

	parallel.SetWorkers(1)
	serial.BulkXNOR(a, b)

	parallel.SetWorkers(4)
	par := NewDefaultPlatform()
	par.BulkXNOR(a, b)

	if serial.MaterializedSubarrays() != par.MaterializedSubarrays() {
		t.Fatalf("materialised %d vs %d sub-arrays", serial.MaterializedSubarrays(), par.MaterializedSubarrays())
	}
	base := serial.layout.ReservedBase()
	for si := 0; si < serial.MaterializedSubarrays(); si++ {
		ss, ps := serial.Subarray(si), par.Subarray(si)
		for r := base; r < base+3; r++ {
			if !ss.Peek(r).Equal(ps.Peek(r)) {
				t.Fatalf("sub-array %d row %d diverged", si, r)
			}
		}
	}
}
