package correct

import (
	"math"
	"runtime"
	"testing"

	"pimassembler/internal/genome"
	"pimassembler/internal/kmer"
	"pimassembler/internal/stats"
)

// errReads draws reads with a known per-base error rate.
func errReads(seed uint64, genomeLen, readLen, n int, rate float64) (*genome.Sequence, []*genome.Sequence, []*genome.Sequence) {
	rng := stats.NewRNG(seed)
	ref := genome.GenerateGenome(genomeLen, rng)
	// Sample positions deterministically, derive clean + noisy variants of
	// the same reads for oracle comparison.
	clean := make([]*genome.Sequence, n)
	noisy := make([]*genome.Sequence, n)
	for i := 0; i < n; i++ {
		pos := rng.Intn(genomeLen - readLen + 1)
		clean[i] = ref.Subsequence(pos, readLen)
		noisy[i] = ref.Subsequence(pos, readLen)
		for j := 0; j < readLen; j++ {
			if rng.Float64() < rate {
				noisy[i].SetBase(j, genome.Base((int(noisy[i].Base(j))+1+rng.Intn(3))%4))
			}
		}
	}
	return ref, clean, noisy
}

func TestCorrectSingleError(t *testing.T) {
	_, clean, noisy := errReads(1, 3000, 80, 1200, 0.002)
	c := FromReadsWorkers(noisy, 15, 3, 4, 1)
	st := c.CorrectAll(noisy)
	if st.Corrected == 0 || st.Edits == 0 {
		t.Fatalf("nothing corrected: %+v", st)
	}
	// Most repaired reads should now equal their clean originals.
	restored, damaged := 0, 0
	for i := range noisy {
		if noisy[i].Equal(clean[i]) {
			restored++
		} else {
			damaged++
		}
	}
	if restored < len(noisy)*95/100 {
		t.Fatalf("only %d/%d reads exact after correction", restored, len(noisy))
	}
}

func TestCorrectLeavesCleanReadsAlone(t *testing.T) {
	rng := stats.NewRNG(2)
	ref := genome.GenerateGenome(2000, rng)
	reads := genome.NewReadSampler(ref, 70, 0, rng).Sample(600)
	originals := make([]string, len(reads))
	for i, r := range reads {
		originals[i] = r.String()
	}
	c := FromReadsWorkers(reads, 15, 3, 4, 1)
	st := c.CorrectAll(reads)
	if st.Edits != 0 {
		t.Fatalf("clean reads edited: %+v", st)
	}
	for i, r := range reads {
		if r.String() != originals[i] {
			t.Fatalf("read %d mutated", i)
		}
	}
}

func TestCorrectionShrinksSpectrum(t *testing.T) {
	_, _, noisy := errReads(3, 3000, 80, 1200, 0.003)
	k := 15
	before := kmer.CountReads(noisy, k).Len()
	FromReadsWorkers(noisy, k, 3, 4, 1).CorrectAll(noisy)
	after := kmer.CountReads(noisy, k).Len()
	trueKmers := 3000 - k + 1
	if after >= before {
		t.Fatalf("spectrum did not shrink: %d -> %d", before, after)
	}
	if after > trueKmers*115/100 {
		t.Fatalf("%d distinct k-mers remain vs %d true", after, trueKmers)
	}
}

func TestShortReadUntouched(t *testing.T) {
	c := FromReadsWorkers([]*genome.Sequence{genome.MustFromString("ACGTACGTACGTACGTACGT")}, 15, 2, 4, 1)
	short := genome.MustFromString("ACGT")
	if st := c.CorrectAll([]*genome.Sequence{short}); st.Edits != 0 {
		t.Fatal("read shorter than k must not be edited")
	}
}

// TestCorrectHugeWorkerCount is the regression test for a worker count near
// MaxInt: CorrectAll's chunk size overflowed to zero and parallel.Spans
// panicked, taking the daemon down with it. Any worker count must repair
// exactly what one worker repairs, on at most GOMAXPROCS goroutines.
func TestCorrectHugeWorkerCount(t *testing.T) {
	_, _, noisy := errReads(4, 3000, 80, 600, 0.005)
	want := cloneReads(noisy)
	wantStats := FromReadsWorkers(want, 15, 3, 4, 1).CorrectAll(want)
	if wantStats.Edits == 0 {
		t.Fatal("fixture has nothing to correct")
	}
	for _, workers := range []int{len(noisy) + 1, math.MaxInt} {
		got := cloneReads(noisy)
		c := FromReadsWorkers(got, 15, 3, 4, workers)
		if n := c.fanOut(len(got)); n > runtime.GOMAXPROCS(0) {
			t.Fatalf("workers=%d: fans out %d ways, more than GOMAXPROCS = %d", workers, n, runtime.GOMAXPROCS(0))
		}
		if st := c.CorrectAll(got); st != wantStats {
			t.Fatalf("workers=%d: %+v, want %+v", workers, st, wantStats)
		}
		for i := range got {
			if !got[i].Equal(want[i]) {
				t.Fatalf("workers=%d: read %d differs from the one-worker repair", workers, i)
			}
		}
	}
}

func TestNewPanics(t *testing.T) {
	tbl := kmer.NewCountTable(15, 4)
	for _, f := range []func(){
		func() { New(tbl, 0, 4) },
		func() { New(tbl, 3, 0) },
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

// TestCorrectAllAllocations pins the allocation shape: a CorrectAll call
// allocates its per-worker scratch (a handful of slices grown to the read
// length) and the fan-out's bookkeeping — O(workers), nothing per read, per
// window or per candidate.
func TestCorrectAllAllocations(t *testing.T) {
	_, _, reads := errReads(9, 3000, 101, 2000, 0.01)
	c := FromReadsWorkers(reads, 21, 3, 4, 1)
	for _, workers := range []int{1, 4} {
		c.workers = workers
		const runs = 3
		copies := make([][]*genome.Sequence, runs+1) // AllocsPerRun warms up once
		for i := range copies {
			copies[i] = cloneReads(reads)
		}
		next := 0
		allocs := testing.AllocsPerRun(runs, func() {
			if st := c.CorrectAll(copies[next]); st.Edits == 0 {
				t.Fatal("nothing corrected")
			}
			next++
		})
		if limit := float64(32 * workers); allocs > limit {
			t.Errorf("workers=%d: %v allocations repairing %d reads, want at most %v", workers, allocs, len(reads), limit)
		}
		t.Logf("workers=%d: %v allocations for %d reads", workers, allocs, len(reads))
	}
}
