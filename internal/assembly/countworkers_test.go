package assembly

import (
	"reflect"
	"runtime"
	"testing"

	"pimassembler/internal/genome"
	"pimassembler/internal/stats"
)

func countWorkersWorkload(seed uint64, genomeLen, readLen, n int, errRate float64) []*genome.Sequence {
	rng := stats.NewRNG(seed)
	ref := genome.GenerateGenome(genomeLen, rng)
	return genome.NewReadSampler(ref, readLen, errRate, rng).Sample(n)
}

// TestCountWorkersContigsIdentical is the end-to-end determinism pin for
// the worker count of stage 1's fold rounds: for the four shard
// property-test workload shapes and one that takes the counter past its
// bucket split, contigs, the graphs' Euler walks and every OpCounts field
// are identical between one worker and CountWorkers ∈ {2, 4, NumCPU}.
func TestCountWorkersContigsIdentical(t *testing.T) {
	trials := []struct {
		name                         string
		seed                         uint64
		genomeLen, readLen, numReads int
		errRate                      float64
	}{
		{"clean reads", 21, 2_000, 101, 150, 0},
		{"erroneous reads", 22, 1_500, 80, 200, 0.01},
		{"short genome", 23, 400, 60, 64, 0},
		{"reads barely above k", 24, 900, 18, 120, 0},
		{"past the bucket split", 25, 60_000, 101, 1_200, 0.005},
	}
	for _, tr := range trials {
		t.Run(tr.name, func(t *testing.T) {
			reads := countWorkersWorkload(tr.seed, tr.genomeLen, tr.readLen, tr.numReads, tr.errRate)
			base, err := Assemble(reads, Options{K: 16})
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 4, runtime.NumCPU()} {
				res, err := Assemble(reads, Options{K: 16, CountWorkers: workers})
				if err != nil {
					t.Fatal(err)
				}
				assertSameAssembly(t, workers, base, res)
			}
		})
	}
}

// TestCountWorkersOptionSurface drives the count-dependent option paths —
// MinCount trimming, simplification, and spectrum read correction — through
// the parallel counter and pins the contigs against the serial run.
func TestCountWorkersOptionSurface(t *testing.T) {
	reads := countWorkersWorkload(22, 1_500, 80, 200, 0.01)
	for _, opts := range []Options{
		{K: 14, MinCount: 2},
		{K: 14, Simplify: true},
		{K: 14, Correct: true, SolidThreshold: 3},
		{K: 14, MinCount: 2, Simplify: true, Correct: true},
	} {
		serialOpts := opts
		serial, err := Assemble(reads, serialOpts)
		if err != nil {
			t.Fatal(err)
		}
		parOpts := opts
		parOpts.CountWorkers = 4
		par, err := Assemble(reads, parOpts)
		if err != nil {
			t.Fatal(err)
		}
		assertSameAssembly(t, 4, serial, par)
	}
}

// assertSameAssembly compares every deterministic field of two software
// pipeline results: contigs byte for byte, walks, and the OpCounts the
// analytical models consume.
func assertSameAssembly(t *testing.T, workers int, want, got *Result) {
	t.Helper()
	if !reflect.DeepEqual(got.Contigs, want.Contigs) {
		t.Fatalf("CountWorkers=%d: contigs diverge from serial", workers)
	}
	gotWalk, gotErr := got.Graph.EulerPath()
	wantWalk, wantErr := want.Graph.EulerPath()
	if !reflect.DeepEqual(gotWalk, wantWalk) || (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("CountWorkers=%d: Euler walk diverges from serial (err %v, want %v)", workers, gotErr, wantErr)
	}
	if !reflect.DeepEqual(got.Scaffolds, want.Scaffolds) {
		t.Fatalf("CountWorkers=%d: scaffolds diverge from serial", workers)
	}
	if got.Counts != want.Counts {
		t.Fatalf("CountWorkers=%d: op counts diverge:\n got %+v\nwant %+v", workers, got.Counts, want.Counts)
	}
}

// TestHugeCountWorkers pins a worker count no host has, on reads that pass
// the bucket split and are corrected, to the one-worker contigs and op
// counts. The fold and the correction clamp their fan-out to GOMAXPROCS
// (kmer TestWorkersClampedToGOMAXPROCS, correct TestCorrectHugeWorkerCount),
// so such a request starts no more goroutines than a host-sized one.
func TestHugeCountWorkers(t *testing.T) {
	reads := countWorkersWorkload(25, 60_000, 101, 1_200, 0.005)
	opts := Options{K: 16, Correct: true, SolidThreshold: 2}
	base, err := Assemble(reads, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.CountWorkers = 1_000_000
	got, err := Assemble(reads, opts)
	if err != nil {
		t.Fatal(err)
	}
	assertSameAssembly(t, opts.CountWorkers, base, got)
}
