package correct

import (
	"fmt"
	"testing"

	"pimassembler/internal/genome"
	"pimassembler/internal/kmer"
)

// oracle is the corrector as it was before the window-state rewrite, kept
// test-side as the reference the production code must match bit for bit: it
// re-extracts every window from the read for every question — a fresh
// Subsequence per window per candidate, a whole-read Iterate per weak test
// and per vote — and looks each k-mer up on its own.
type oracle struct {
	table          *kmer.CountTable
	k              int
	solidThreshold uint32
	maxCorrections int
}

func (c *oracle) solid(km kmer.Kmer) bool {
	return c.table.Count(km) >= c.solidThreshold
}

// weakPositions returns the base positions covered by at least one weak
// k-mer (nil when the read is clean or too short).
func (c *oracle) weakPositions(read *genome.Sequence) []bool {
	if read.Len() < c.k {
		return nil
	}
	weak := make([]bool, read.Len())
	any := false
	pos := 0
	kmer.Iterate(read, c.k, func(km kmer.Kmer) {
		if !c.solid(km) {
			for i := pos; i < pos+c.k; i++ {
				weak[i] = true
			}
			any = true
		}
		pos++
	})
	if !any {
		return nil
	}
	return weak
}

func (c *oracle) correctRead(read *genome.Sequence) int {
	edits := 0
	for edits < c.maxCorrections {
		if c.weakPositions(read) == nil {
			return edits
		}
		pos := c.pickPosition(read)
		if pos < 0 {
			return edits
		}
		base := read.Base(pos)
		bestBase, bestScore := base, c.solidAround(read, pos)
		for d := 1; d < 4; d++ {
			candidate := genome.Base((int(base) + d) % 4)
			read.SetBase(pos, candidate)
			if s := c.solidAround(read, pos); s > bestScore {
				bestBase, bestScore = candidate, s
			}
		}
		read.SetBase(pos, bestBase)
		if bestBase == base {
			return edits // no improvement possible at the hot spot
		}
		edits++
	}
	return edits
}

// pickPosition returns the base position covered by the most weak k-mers.
func (c *oracle) pickPosition(read *genome.Sequence) int {
	votes := make([]int, read.Len())
	pos := 0
	kmer.Iterate(read, c.k, func(km kmer.Kmer) {
		if !c.solid(km) {
			for i := pos; i < pos+c.k; i++ {
				votes[i]++
			}
		}
		pos++
	})
	best, bestV := -1, 0
	for i, v := range votes {
		if v > bestV {
			best, bestV = i, v
		}
	}
	return best
}

// solidAround counts solid k-mers among the windows covering position pos.
func (c *oracle) solidAround(read *genome.Sequence, pos int) int {
	lo := pos - c.k + 1
	if lo < 0 {
		lo = 0
	}
	hi := pos
	if hi > read.Len()-c.k {
		hi = read.Len() - c.k
	}
	solid := 0
	for w := lo; w <= hi; w++ {
		var km kmer.Kmer
		for i := 0; i < c.k; i++ {
			km |= kmer.Kmer(read.Base(w+i)) << (2 * uint(i))
		}
		if c.solid(km) {
			solid++
		}
	}
	return solid
}

func (c *oracle) correctAll(reads []*genome.Sequence) Stats {
	st := Stats{Reads: len(reads)}
	for _, r := range reads {
		if e := c.correctRead(r); e > 0 {
			st.Corrected++
			st.Edits += e
		}
		if c.weakPositions(r) != nil {
			st.Unrepairable++
		}
	}
	return st
}

func cloneReads(reads []*genome.Sequence) []*genome.Sequence {
	out := make([]*genome.Sequence, len(reads))
	for i, r := range reads {
		out[i] = r.Subsequence(0, r.Len())
	}
	return out
}

// runOracle repairs a copy of reads with the oracle over table.
func runOracle(table *kmer.CountTable, reads []*genome.Sequence, threshold uint32, budget int) ([]*genome.Sequence, Stats) {
	want := cloneReads(reads)
	return want, (&oracle{table, table.K(), threshold, budget}).correctAll(want)
}

// newWorkers is New with CorrectAll fanned out over workers.
func newWorkers(spectrum Spectrum, threshold uint32, budget, workers int) *Corrector {
	c := New(spectrum, threshold, budget)
	c.workers = workers
	return c
}

// matchOracle repairs a copy of reads with c and requires the oracle's Stats
// and byte-equal reads.
func matchOracle(t testing.TB, c *Corrector, reads, want []*genome.Sequence, wantStats Stats) {
	t.Helper()
	got := cloneReads(reads)
	if gotStats := c.CorrectAll(got); gotStats != wantStats {
		t.Fatalf("stats %+v, oracle %+v", gotStats, wantStats)
	}
	for i := range got {
		if !got[i].Equal(want[i]) {
			t.Fatalf("read %d:\n got %s\nwant %s\n was %s", i, got[i], want[i], reads[i])
		}
	}
}

// TestCorrectMatchesOracle is the differential pin of the rewrite: every
// repaired base and every Stats field equals the re-extracting oracle's over
// CountReads, for a corrector built by New over either counter and by
// FromReadsWorkers itself, at any worker count. The read sets mix in reads
// shorter than k, exactly k long, and one window longer. New runs at
// threshold 3 with 1, 2 and 4 workers. FromReadsWorkers runs once per
// configuration, at the next threshold of 1 to 5 and the next worker count
// of 1 to 4 in turn, so that over the 32 configurations every threshold
// meets every worker count.
func TestCorrectMatchesOracle(t *testing.T) {
	edited, turn := 0, 0
	for _, k := range []int{15, 21, 31, 32} {
		for _, rate := range []float64{0, 0.002, 0.01, 0.05} {
			_, _, reads := errReads(uint64(1000*k)+uint64(rate*1000), 3000, 90, 600, rate)
			for _, n := range []int{k - 1, k, k + 1, 3} {
				reads = append(reads, reads[n].Subsequence(n, n))
			}
			serial := kmer.CountReads(reads, k)
			tables := map[string]Spectrum{
				"serial":      serial,
				"partitioned": kmer.CountReadsParallel(reads, k, 2),
			}
			for _, budget := range []int{1, 4} {
				// Both tables hold the same spectrum, so one oracle run
				// serves every table and worker count.
				want, wantStats := runOracle(serial, reads, 3, budget)
				edited += wantStats.Edits
				for name, table := range tables {
					for _, workers := range []int{1, 2, 4} {
						t.Run(fmt.Sprintf("k%d/err%v/max%d/%s/workers%d", k, rate, budget, name, workers), func(t *testing.T) {
							matchOracle(t, newWorkers(table, 3, budget, workers), reads, want, wantStats)
						})
					}
				}
				threshold, workers := 1+uint32(turn%5), 1+turn%4
				turn++
				if threshold != 3 {
					want, wantStats = runOracle(serial, reads, threshold, budget)
				}
				t.Run(fmt.Sprintf("k%d/err%v/max%d/FromReadsWorkers/threshold%d/workers%d", k, rate, budget, threshold, workers), func(t *testing.T) {
					matchOracle(t, FromReadsWorkers(reads, k, threshold, budget, workers), reads, want, wantStats)
				})
			}
		}
	}
	if edited == 0 {
		t.Fatal("no configuration edited a base: the comparison is vacuous")
	}
}

// FuzzCorrectMatchesOracle drives the same comparison from fuzzed bytes: a
// random genome's reads with substitutions wherever the data says, k, solid
// threshold, edit budget and worker count all taken from the input, for a
// corrector built by New over CountReads and by FromReadsWorkers.
func FuzzCorrectMatchesOracle(f *testing.F) {
	f.Add(uint64(1), uint8(15), uint8(3), uint8(4), uint8(2), []byte{7, 200, 31, 5})
	f.Add(uint64(2), uint8(32), uint8(2), uint8(1), uint8(1), []byte{})
	f.Add(uint64(3), uint8(4), uint8(1), uint8(9), uint8(4), []byte{1, 1, 1, 1, 1, 1, 1, 1})
	f.Fuzz(func(t *testing.T, seed uint64, k, threshold, budget, workers uint8, flips []byte) {
		kk := 1 + int(k)%kmer.MaxK
		_, _, reads := errReads(seed, 600, 60, 120, 0)
		// flips[i] substitutes a base of read i mod len(reads), so fuzzed
		// inputs can stack several errors inside one window.
		for i, b := range flips {
			r := reads[i%len(reads)]
			pos := int(b) % r.Len()
			r.SetBase(pos, r.Base(pos)^genome.Base(1+i%3))
		}
		reads = append(reads, reads[0].Subsequence(0, kk-1), reads[1].Subsequence(5, kk))
		table := kmer.CountReads(reads, kk)
		thr, max, w := 1+uint32(threshold)%5, 1+int(budget)%6, 1+int(workers)%4
		want, wantStats := runOracle(table, reads, thr, max)
		matchOracle(t, newWorkers(table, thr, max, w), reads, want, wantStats)
		matchOracle(t, FromReadsWorkers(reads, kk, thr, max, w), reads, want, wantStats)
	})
}
