package correct

import (
	"fmt"
	"reflect"
	"testing"

	"pimassembler/internal/genome"
	"pimassembler/internal/kmer"
	"pimassembler/internal/stats"
)

// matchRecount repairs a copy of reads with c's CorrectCount and requires
// what CorrectAll repairs on another copy — reads and Stats — and a tally
// that agrees with a BucketTable count of the repaired reads: entries at
// every MinCount the pipeline uses, Len, and the read, base and k-mer
// totals. It returns the tally.
func matchRecount(t testing.TB, c *Corrector, reads []*genome.Sequence) *Tally {
	t.Helper()
	want := cloneReads(reads)
	wantStats := c.CorrectAll(want)
	got := cloneReads(reads)
	gotStats, tally := c.CorrectCount(got)
	if gotStats != wantStats {
		t.Fatalf("CorrectCount stats %+v, CorrectAll %+v", gotStats, wantStats)
	}
	for i := range got {
		if !got[i].Equal(want[i]) {
			t.Fatalf("read %d: CorrectCount repaired %s, CorrectAll %s", i, got[i], want[i])
		}
	}
	recount := kmer.CountReadsParallel(got, c.k, 1)
	for _, min := range []uint32{0, 2, 3} {
		if g, w := tally.FilterMinCount(min), recount.FilterMinCount(min); !reflect.DeepEqual(g, w) {
			t.Fatalf("MinCount=%d: tally holds %d entries, the recount %d, or their counts differ", min, len(g), len(w))
		}
	}
	if tally.Len() != recount.Len() {
		t.Fatalf("tally has %d distinct k-mers, the recount %d", tally.Len(), recount.Len())
	}
	var bases, kmers int64
	for _, r := range got {
		bases += int64(r.Len())
		kmers += int64(max(r.Len()-c.k+1, 0))
	}
	if tally.Reads != int64(len(got)) || tally.Bases != bases || tally.Kmers != kmers {
		t.Fatalf("tally totals %d reads, %d bases, %d k-mers; want %d, %d, %d",
			tally.Reads, tally.Bases, tally.Kmers, len(got), bases, kmers)
	}
	return tally
}

// TestTallyMatchesRecount pins the count CorrectCount takes while it repairs
// to a second count of the repaired reads, at k ∈ {16, 21, 32} (both of the
// bucketed counter's code widths) and solid thresholds 1, 3 and 5, each
// pair on the next of 0, 1, 2 and 4 workers in turn. The tally must equal
// the recount whatever the worker count, so each run pins it for its own.
// The reads are noisy reads of one genome, more than one tallying round of
// them, beside error-free copies whose k-mers are all solid, reads of a
// second genome whose k-mers are all weak at thresholds above 1 — more
// distinct than the weak counter holds before its split — and reads
// shorter than k, down to none.
func TestTallyMatchesRecount(t *testing.T) {
	rng := stats.NewRNG(71)
	ref := genome.GenerateGenome(20_000, rng)
	reads := genome.NewReadSampler(ref, 101, 0.01, rng).Sample(3_000)
	reads = append(reads, genome.NewReadSampler(ref, 101, 0, rng).Sample(300)...)
	reads = append(reads, genome.NewReadSampler(genome.GenerateGenome(1_000_000, rng), 101, 0, rng).Sample(700)...)
	windows := 0
	for _, r := range reads {
		windows += r.Len() - 16 + 1
	}
	if windows <= roundKmers {
		t.Fatalf("%d windows at k=16 fit one round of %d", windows, roundKmers)
	}
	turn := 0
	for _, k := range []int{16, 21, 32} {
		set := append(reads[:len(reads):len(reads)], reads[0].Subsequence(0, k-1), reads[1].Subsequence(3, 1), genome.NewSequence(0))
		for _, threshold := range []uint32{1, 3, 5} {
			workers := []int{0, 1, 2, 4}[turn%4]
			turn++
			t.Run(fmt.Sprintf("k%d/threshold%d/workers%d", k, threshold, workers), func(t *testing.T) {
				c := FromReadsWorkers(set, k, threshold, 4, workers)
				tally := matchRecount(t, c, set)
				if threshold > 1 && tally.weak.Len() <= 1<<15 {
					t.Fatalf("only %d weak k-mers: the weak counter never splits", tally.weak.Len())
				}
			})
		}
	}
}

// FuzzTallyMatchesRecount drives the same comparison from fuzzed bytes: a
// random genome's reads with substitutions wherever the data says, beside
// reads shorter than k, with k, solid threshold, edit budget and worker
// count all taken from the input.
func FuzzTallyMatchesRecount(f *testing.F) {
	f.Add(uint64(1), uint8(15), uint8(3), uint8(4), uint8(2), []byte{7, 200, 31, 5})
	f.Add(uint64(2), uint8(31), uint8(2), uint8(1), uint8(1), []byte{})
	f.Add(uint64(3), uint8(20), uint8(0), uint8(9), uint8(3), []byte{1, 1, 1, 1, 1, 1, 1, 1})
	f.Fuzz(func(t *testing.T, seed uint64, k, threshold, budget, workers uint8, flips []byte) {
		kk := 1 + int(k)%kmer.MaxK
		_, _, reads := errReads(seed, 600, 60, 120, 0)
		for i, b := range flips {
			r := reads[i%len(reads)]
			pos := int(b) % r.Len()
			r.SetBase(pos, r.Base(pos)^genome.Base(1+i%3))
		}
		reads = append(reads, reads[0].Subsequence(0, kk-1), reads[1].Subsequence(5, kk))
		thr, max, w := 1+uint32(threshold)%5, 1+int(budget)%6, int(workers)%5
		matchRecount(t, FromReadsWorkers(reads, kk, thr, max, w), reads)
	})
}
