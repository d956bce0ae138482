// Package correct implements k-mer-spectrum read correction — the
// pre-assembly cleanup pass (in the spirit of Velvet/SPAdes pipelines) that
// repairs likely sequencing errors before k-mer counting: a substitution
// error turns up to k covering k-mers from "solid" (frequent) to "weak"
// (rare); replacing the base with the alternative that restores solidity
// removes the error without discarding the read.
//
// A read is extracted and looked up once. Its windows' k-mers and whether
// each is solid are kept as per-read state; every later question — is a
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

// Corrector holds the solid k-mers and the correction policy. The set is
// only read, so one Corrector may repair reads from several goroutines.
type Corrector struct {
	solid   *kmer.Set // the k-mers counted at least the solid threshold
	k       int
	workers int // CorrectAll's fan-out; ≤ 1 repairs on the calling goroutine
	// maxCorrections bounds edits per read (reads needing more are left
	// unchanged — they are better handled by graph simplification).
	maxCorrections int
}

// Spectrum is a counted k-mer table: kmer.CountTable or kmer.BucketTable.
type Spectrum interface {
	K() int
	FilterMinCount(min uint32) []kmer.Entry
}

// New builds a corrector that trusts the k-mers spectrum counted at least
// solidThreshold times. Only that set is kept, so the spectrum may be
// dropped once New returns, and the threshold cannot change afterwards.
func New(spectrum Spectrum, solidThreshold uint32, maxCorrections int) *Corrector {
	if solidThreshold == 0 {
		panic("correct: solid threshold must be positive")
	}
	if maxCorrections <= 0 {
		panic(fmt.Sprintf("correct: max corrections %d must be positive", maxCorrections))
	}
	return &Corrector{
		solid:          kmer.NewSet(spectrum.K(), spectrum.FilterMinCount(solidThreshold)),
		k:              spectrum.K(),
		maxCorrections: maxCorrections,
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
	codes []byte      // the read's bases as 2-bit codes
	kms   []kmer.Kmer // kms[w]: window w's k-mer
	solid []bool      // solid[w]: whether it is a solid k-mer
	// trial and best hold the windows covering the hot spot under the
	// substitution being tried and under the best one so far.
	trial, best cover
}

// cover is the k-mers and solid flags of the windows covering one position.
type cover struct {
	kms   []kmer.Kmer
	solid []bool
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
	s.solid = resize(s.solid, len(s.kms))
	c.solid.HasAll(s.kms, s.solid)
	return len(s.kms) - countSolid(s.solid)
}

// countSolid counts the set flags.
func countSolid(solid []bool) (n int) {
	for _, ok := range solid {
		if ok {
			n++
		}
	}
	return n
}

// hotSpot returns the base position covered by the most weak windows, the
// lowest such position on a tie. Position i is covered by windows i−k+1 … i,
// so its vote is a sliding sum over the windows; past the last window the
// sum can only fall, so the scan stops there. At least one window is weak.
func (c *Corrector) hotSpot(solid []bool) int {
	pos, most, votes := -1, 0, 0
	for i, ok := range solid {
		if !ok {
			votes++
		}
		if i >= c.k && !solid[i-c.k] {
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
	for edits < c.maxCorrections && weak > 0 {
		pos := c.hotSpot(s.solid)
		lo, hi := max(0, pos-c.k+1), min(pos, len(s.kms)-1)
		covering, solid := s.kms[lo:hi+1], s.solid[lo:hi+1]
		base := covering[0].Base(pos - lo)
		score := countSolid(solid)
		bestBase, bestScore := base, score
		for d := 1; d < 4 && bestScore < len(covering); d++ {
			candidate := genome.Base((int(base) + d) % 4)
			// Substituting base pos changes window w's k-mer in the two
			// bits of its base pos−w and nowhere else.
			flip := kmer.Kmer(base ^ candidate)
			s.trial.kms = resize(s.trial.kms, len(covering))
			s.trial.solid = resize(s.trial.solid, len(covering))
			for i, km := range covering {
				s.trial.kms[i] = km ^ flip<<(2*uint(pos-lo-i))
			}
			c.solid.HasAll(s.trial.kms, s.trial.solid)
			if n := countSolid(s.trial.solid); n > bestScore {
				bestBase, bestScore = candidate, n
				s.trial, s.best = s.best, s.trial
			}
		}
		if bestBase == base {
			break // no improvement possible at the hot spot
		}
		read.SetBase(pos, bestBase)
		copy(covering, s.best.kms)
		copy(solid, s.best.solid)
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

// FromReadsWorkers builds a corrector from the reads' own spectrum — the
// usual self-correction bootstrap — counted on the bucketed counter folding
// on workers goroutines; CorrectAll fans out over as many. The solid set, and
// so every correction decision, is the same for every worker count.
func FromReadsWorkers(reads []*genome.Sequence, k int, solidThreshold uint32, maxCorrections, workers int) *Corrector {
	c := New(kmer.CountReadsParallel(reads, k, workers), solidThreshold, maxCorrections)
	c.workers = workers
	return c
}
