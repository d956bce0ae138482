// Package correct implements k-mer-spectrum read correction — the
// pre-assembly cleanup pass (in the spirit of Velvet/SPAdes pipelines) that
// repairs likely sequencing errors before k-mer counting: a substitution
// error turns up to k covering k-mers from "solid" (frequent) to "weak"
// (rare); replacing the base with the alternative that restores solidity
// removes the error without discarding the read.
//
// A read is extracted and looked up once. Its windows' k-mers and their
// spectrum counts are kept as per-read state; every later question — is a
// window weak, where do the weak windows pile up, which substitution restores
// the most windows, is the read still damaged — is answered from that state,
// and an edit rewrites only the ≤ k windows that cover the edited base.
package correct

import (
	"fmt"
	"runtime"
	"slices"

	"pimassembler/internal/genome"
	"pimassembler/internal/kmer"
	"pimassembler/internal/parallel"
)

// Corrector holds the k-mer spectrum and correction policy. The spectrum is
// only read, so one Corrector may repair reads from several goroutines.
type Corrector struct {
	table   kmer.Counter
	k       int
	workers int // CorrectAll's fan-out; ≤ 1 repairs on the calling goroutine
	// SolidThreshold is the minimum count for a k-mer to be trusted.
	SolidThreshold uint32
	// MaxCorrections bounds edits per read (reads needing more are left
	// unchanged — they are better handled by graph simplification).
	MaxCorrections int
}

// New builds a corrector from a counted spectrum — the serial CountTable or
// the bucketed BucketTable alike.
func New(table kmer.Counter, solidThreshold uint32, maxCorrections int) *Corrector {
	if solidThreshold == 0 {
		panic("correct: solid threshold must be positive")
	}
	if maxCorrections <= 0 {
		panic(fmt.Sprintf("correct: max corrections %d must be positive", maxCorrections))
	}
	return &Corrector{
		table:          table,
		k:              table.K(),
		SolidThreshold: solidThreshold,
		MaxCorrections: maxCorrections,
	}
}

// Stats summarises a correction run.
type Stats struct {
	Reads        int
	Corrected    int // reads with at least one repair
	Edits        int // total base repairs
	Unrepairable int // reads left with weak k-mers
}

// scratch is one goroutine's reusable per-read state. Window w of a read
// covers bases [w, w+k); a read of n ≥ k bases has n−k+1 windows.
type scratch struct {
	codes  []byte      // the read's bases as 2-bit codes
	kms    []kmer.Kmer // kms[w]: window w's k-mer
	counts []uint32    // counts[w]: its count in the spectrum
	// trial and best hold the windows covering the hot spot under the
	// substitution being tried and under the best one so far.
	trial, best cover
}

// cover is the k-mers and counts of the windows covering one position.
type cover struct {
	kms    []kmer.Kmer
	counts []uint32
}

// resize returns s with length n, reusing its storage when that is enough;
// the contents are unspecified.
func resize[T any](s []T, n int) []T {
	return slices.Grow(s[:0], n)[:n]
}

// scan loads read's windows into s and reports how many are weak.
func (c *Corrector) scan(s *scratch, read *genome.Sequence) (weak int) {
	s.codes = read.AppendCodes(s.codes[:0])
	s.kms = kmer.AppendKmers(s.kms[:0], s.codes, c.k)
	s.counts = resize(s.counts, len(s.kms))
	c.table.CountAll(s.kms, s.counts)
	return len(s.kms) - c.solid(s.counts)
}

// solid counts the trusted k-mers among counts.
func (c *Corrector) solid(counts []uint32) (n int) {
	for _, count := range counts {
		if count >= c.SolidThreshold {
			n++
		}
	}
	return n
}

// hotSpot returns the base position covered by the most weak windows, the
// lowest such position on a tie. Position i is covered by windows i−k+1 … i,
// so its vote is a sliding sum over the windows; past the last window the
// sum can only fall, so the scan stops there. At least one window is weak.
func (c *Corrector) hotSpot(counts []uint32) int {
	pos, most, votes := -1, 0, 0
	for i, count := range counts {
		if count < c.SolidThreshold {
			votes++
		}
		if i >= c.k && counts[i-c.k] < c.SolidThreshold {
			votes--
		}
		if votes > most {
			pos, most = i, votes
		}
	}
	return pos
}

// correctRead repairs a single read in place on a caller-owned scratch,
// returning the number of edits applied and whether the read is left with
// weak k-mers. The heuristic: while weak k-mers remain (and the edit budget
// holds), pick the position where the most weak windows overlap, try the
// three alternative bases, and keep the one that maximises the number of
// solid covering k-mers; stop when no substitution improves.
func (c *Corrector) correctRead(s *scratch, read *genome.Sequence) (edits int, damaged bool) {
	weak := c.scan(s, read)
	for edits < c.MaxCorrections && weak > 0 {
		pos := c.hotSpot(s.counts)
		lo, hi := max(0, pos-c.k+1), min(pos, len(s.kms)-1)
		covering, counts := s.kms[lo:hi+1], s.counts[lo:hi+1]
		base := covering[0].Base(pos - lo)
		score := c.solid(counts)
		bestBase, bestScore := base, score
		for d := 1; d < 4 && bestScore < len(covering); d++ {
			candidate := genome.Base((int(base) + d) % 4)
			// Substituting base pos changes window w's k-mer in the two
			// bits of its base pos−w and nowhere else.
			flip := kmer.Kmer(base ^ candidate)
			s.trial.kms = resize(s.trial.kms, len(covering))
			s.trial.counts = resize(s.trial.counts, len(covering))
			for i, km := range covering {
				s.trial.kms[i] = km ^ flip<<(2*uint(pos-lo-i))
			}
			c.table.CountAll(s.trial.kms, s.trial.counts)
			if n := c.solid(s.trial.counts); n > bestScore {
				bestBase, bestScore = candidate, n
				s.trial, s.best = s.best, s.trial
			}
		}
		if bestBase == base {
			break // no improvement possible at the hot spot
		}
		read.SetBase(pos, bestBase)
		copy(covering, s.best.kms)
		copy(counts, s.best.counts)
		weak -= bestScore - score
		edits++
	}
	return edits, weak > 0
}

// CorrectAll repairs every read in place and reports statistics. Reads are
// repaired independently against a spectrum nobody writes, so with more than
// one worker they are cut into one contiguous chunk per worker, each with its
// own scratch; every read ends up as the serial loop leaves it and the chunk
// statistics are summed in chunk order.
func (c *Corrector) CorrectAll(reads []*genome.Sequence) Stats {
	st := Stats{Reads: len(reads)}
	if len(reads) == 0 {
		return st
	}
	workers := c.fanOut(len(reads))
	spans := parallel.Spans(len(reads), (len(reads)+workers-1)/workers)
	parts := make([]Stats, len(spans))
	parallel.ForEachWorkers(workers, len(spans), func(i int) {
		var (
			s    scratch
			part Stats
		)
		for _, r := range reads[spans[i].Lo:spans[i].Hi] {
			edits, damaged := c.correctRead(&s, r)
			if edits > 0 {
				part.Corrected++
				part.Edits += edits
			}
			if damaged {
				part.Unrepairable++
			}
		}
		parts[i] = part
	})
	for _, p := range parts {
		st.Corrected += p.Corrected
		st.Edits += p.Edits
		st.Unrepairable += p.Unrepairable
	}
	return st
}

// fanOut is how many goroutines CorrectAll repairs n > 0 reads on: the
// requested workers, but no more than GOMAXPROCS, which a request does not
// pick, and no more than the reads, which would leave a worker without a
// chunk.
func (c *Corrector) fanOut(n int) int {
	return min(max(c.workers, 1), runtime.GOMAXPROCS(0), n)
}

// FromReadsWorkers counts the reads' own spectrum and builds a corrector from
// it — the usual self-correction bootstrap. With workers > 1 the spectrum is
// counted by the bucketed counter folding on that many workers (serial
// CountReads otherwise) and CorrectAll fans out over the same number of
// workers. The spectrum — and therefore every correction decision — is
// identical either way.
func FromReadsWorkers(reads []*genome.Sequence, k int, solidThreshold uint32, maxCorrections, workers int) *Corrector {
	var table kmer.Counter
	if workers > 1 {
		table = kmer.CountReadsParallel(reads, k, workers)
	} else {
		table = kmer.CountReads(reads, k)
	}
	c := New(table, solidThreshold, maxCorrections)
	c.workers = workers
	return c
}
