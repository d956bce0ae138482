package kmer

import (
	"reflect"
	"runtime"
	"testing"

	"pimassembler/internal/genome"
	"pimassembler/internal/stats"
)

// countWorkload builds one of the four PR-5 workload shapes (the shard
// property-test suite's trials): clean reads, erroneous reads, a short
// genome, and reads barely above k.
func countWorkload(seed uint64, genomeLen, readLen, n int, errRate float64) []*genome.Sequence {
	rng := stats.NewRNG(seed)
	ref := genome.GenerateGenome(genomeLen, rng)
	return genome.NewReadSampler(ref, readLen, errRate, rng).Sample(n)
}

var countTrials = []struct {
	name                         string
	seed                         uint64
	genomeLen, readLen, numReads int
	errRate                      float64
}{
	{"clean reads", 21, 2_000, 101, 150, 0},
	{"erroneous reads", 22, 1_500, 80, 200, 0.01},
	{"short genome", 23, 400, 60, 64, 0},
	{"reads barely above k", 24, 900, 18, 120, 0},
}

// TestPartitionedMatchesSerial is the tentpole property: for k ∈ {2..8} ×
// the four PR-5 workload shapes, and across partition and worker counts,
// the partitioned counter agrees with the serial CountTable on entries
// order, Len, per-key counts, spectrum, and trimmed entries.
func TestPartitionedMatchesSerial(t *testing.T) {
	workerSweeps := []int{1, 4, runtime.NumCPU()}
	for _, tr := range countTrials {
		t.Run(tr.name, func(t *testing.T) {
			reads := countWorkload(tr.seed, tr.genomeLen, tr.readLen, tr.numReads, tr.errRate)
			for k := 2; k <= 8; k++ {
				serial := CountReads(reads, k)
				wantEntries := serial.Entries()
				wantTrim := serial.FilterMinCount(2)
				for _, parts := range []int{1, 4, 64} {
					for _, workers := range workerSweeps {
						pt := CountReadsPartitioned(reads, k, parts, workers)
						if pt.Len() != serial.Len() {
							t.Fatalf("k=%d P=%d W=%d: Len %d, want %d", k, parts, workers, pt.Len(), serial.Len())
						}
						if got := pt.FilterMinCount(1); !reflect.DeepEqual(got, wantEntries) {
							t.Fatalf("k=%d P=%d W=%d: entries diverge from serial", k, parts, workers)
						}
						if got := pt.FilterMinCount(2); !reflect.DeepEqual(got, wantTrim) {
							t.Fatalf("k=%d P=%d W=%d: FilterMinCount diverges from serial", k, parts, workers)
						}
						for _, e := range wantEntries[:min(len(wantEntries), 32)] {
							if got := pt.Count(e.Kmer); got != e.Count {
								t.Fatalf("k=%d P=%d W=%d: Count(%v)=%d, want %d", k, parts, workers, e.Kmer, got, e.Count)
							}
						}
						if pt.Count(Kmer(Mask(k))) != serial.Count(Kmer(Mask(k))) {
							t.Fatalf("k=%d P=%d W=%d: probe of edge key diverges", k, parts, workers)
						}
					}
				}
			}
		})
	}
}

// TestPartitionedWorkerInvariance pins the full bit-identity contract
// across worker counts at a fixed partition count: entries AND the physical
// ProbeOps totals, which depend on per-partition insertion order.
func TestPartitionedWorkerInvariance(t *testing.T) {
	reads := countWorkload(21, 2_000, 101, 150, 0)
	for _, k := range []int{4, 16, 31} {
		base := CountReadsPartitioned(reads, k, DefaultPartitions, 1)
		baseEntries := base.FilterMinCount(1)
		for _, workers := range []int{2, 4, runtime.NumCPU(), 3 * runtime.NumCPU()} {
			pt := CountReadsPartitioned(reads, k, DefaultPartitions, workers)
			if pt.ProbeOps() != base.ProbeOps() {
				t.Fatalf("k=%d workers=%d: ProbeOps %d, want %d (workers=1)",
					k, workers, pt.ProbeOps(), base.ProbeOps())
			}
			if !reflect.DeepEqual(pt.FilterMinCount(1), baseEntries) {
				t.Fatalf("k=%d workers=%d: entries diverge from workers=1", k, workers)
			}
		}
	}
}

// TestCountReadsParallelDefault pins CountReadsParallel to the
// DefaultPartitions geometry.
func TestCountReadsParallelDefault(t *testing.T) {
	reads := countWorkload(23, 400, 60, 64, 0)
	pt := CountReadsParallel(reads, 8, 2)
	if len(pt.parts) != DefaultPartitions {
		t.Fatalf("partitions %d, want %d", len(pt.parts), DefaultPartitions)
	}
	want := CountReadsPartitioned(reads, 8, DefaultPartitions, 2)
	if pt.ProbeOps() != want.ProbeOps() || !reflect.DeepEqual(pt.FilterMinCount(1), want.FilterMinCount(1)) {
		t.Fatal("CountReadsParallel differs from explicit DefaultPartitions call")
	}
}

// TestPartitionedTableGeometry covers the partition-count rounding and the
// routing function's edge cases.
func TestPartitionedTableGeometry(t *testing.T) {
	for _, tc := range []struct{ req, want int }{
		{-3, 1}, {0, 1}, {1, 1}, {2, 2}, {3, 4}, {5, 8}, {64, 64}, {65, 128},
		{maxPartitions, maxPartitions}, {maxPartitions + 1, maxPartitions},
	} {
		pt := NewPartitionedTable(16, tc.req, 0)
		if len(pt.parts) != tc.want {
			t.Errorf("partitions(%d) = %d, want %d", tc.req, len(pt.parts), tc.want)
		}
	}
	// One partition must route everything to index 0 (Hash() >> 64 == 0).
	pt := NewPartitionedTable(16, 1, 0)
	rng := stats.NewRNG(3)
	for i := 0; i < 100; i++ {
		km := Kmer(rng.Uint64()) & Kmer(Mask(16))
		pt.parts[0].Add(km)
		if pt.Count(km) == 0 {
			t.Fatalf("single-partition table routed %v away from partition 0", km)
		}
	}
}

// TestMergeEntryRuns exercises the k-way merge directly, including empty
// and single runs.
func TestMergeEntryRuns(t *testing.T) {
	if got := mergeEntryRuns(nil); len(got) != 0 {
		t.Fatal("merging no runs must be empty")
	}
	if got := mergeEntryRuns([][]Entry{nil, {}, nil}); len(got) != 0 {
		t.Fatal("merging empty runs must be empty")
	}
	one := []Entry{{1, 1}, {5, 2}}
	if got := mergeEntryRuns([][]Entry{nil, one}); !reflect.DeepEqual(got, one) {
		t.Fatal("single live run must pass through")
	}
	rng := stats.NewRNG(7)
	var runs [][]Entry
	var all []Entry
	next := Kmer(0)
	for r := 0; r < 9; r++ {
		n := rng.Intn(40)
		run := make([]Entry, 0, n)
		for i := 0; i < n; i++ {
			next += Kmer(rng.Intn(5) + 1)
			run = append(run, Entry{next, uint32(r + 1)})
		}
		runs = append(runs, run)
		all = append(all, run...)
	}
	// Scatter: reassign entries to runs round-robin so runs interleave.
	scattered := make([][]Entry, 7)
	for i, e := range all {
		scattered[i%7] = append(scattered[i%7], e)
	}
	want := append([]Entry(nil), all...)
	refSortEntries(want)
	if got := mergeEntryRuns(scattered); !reflect.DeepEqual(got, want) {
		t.Fatal("k-way merge diverges from reference sort")
	}
}
