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

// summariesEqual asserts exact equality of the recorded command stream and of
// everything Summarize reads off it — the floating-point serial time and
// energy included — which the ordered region append keeps bit-identical
// regardless of worker count.
func summariesEqual(t *testing.T, workers int, serial, par *Platform) {
	t.Helper()
	if !reflect.DeepEqual(serial.Stream().Commands(), par.Stream().Commands()) {
		t.Fatalf("workers=%d: recorded stream diverged from the one-worker run's", workers)
	}
	if s, p := serial.Summarize(), par.Summarize(); !reflect.DeepEqual(s, p) {
		t.Fatalf("workers=%d: Summarize diverged from the one-worker run's:\n got %+v\nwant %+v", workers, p, s)
	}
}

// TestBulkXNORParallelMatchesSerial pins the determinism contract: the bulk
// fan-out must produce the identical digital result and an identical
// Summarize() for any worker count, because chunk->sub-array assignment,
// RNG-free data flow, and the ordered stream append are all
// scheduling-independent.
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
		summariesEqual(t, workers, serial, par)
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

	if len(serial.subs) != len(par.subs) {
		t.Fatalf("materialised %d vs %d sub-arrays", len(serial.subs), len(par.subs))
	}
	base := serial.layout.ReservedBase()
	for si := 0; si < len(serial.subs); si++ {
		ss, ps := serial.Subarray(si), par.Subarray(si)
		for r := base; r < base+3; r++ {
			if !ss.Peek(r).Equal(ps.Peek(r)) {
				t.Fatalf("sub-array %d row %d diverged", si, r)
			}
		}
	}
}
