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
//
// The lookup that says whether a window is solid also says where its k-mer
// sits among the solid set's sorted keys, so CorrectCount takes stage 1's
// count of the repaired reads on the way: once a read's repair ends, each
// solid window adds one beside its key and each weak window's k-mer goes to
// a bucketed counter. Nothing rolls or hashes the repaired reads again.
package correct

import (
	"fmt"
	"math"
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
	idx   []int32     // idx[w]: its index among the solid keys, −1 if weak
	// trial and best hold the windows covering the hot spot under the
	// substitution being tried and under the best one so far.
	trial, best cover
}

// cover is the k-mers and key indices of the windows covering one position.
type cover struct {
	kms []kmer.Kmer
	idx []int32
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
	s.idx = resize(s.idx, len(s.kms))
	c.solid.IndexAll(s.kms, s.idx)
	return len(s.kms) - countSolid(s.idx)
}

// countSolid counts the windows found in the solid set.
func countSolid(idx []int32) (n int) {
	for _, i := range idx {
		if i >= 0 {
			n++
		}
	}
	return n
}

// hotSpot returns the base position covered by the most weak windows, the
// lowest such position on a tie. Position i is covered by windows i−k+1 … i,
// so its vote is a sliding sum over the windows; past the last window the
// sum can only fall, so the scan stops there. At least one window is weak.
func (c *Corrector) hotSpot(idx []int32) int {
	pos, most, votes := -1, 0, 0
	for i, at := range idx {
		if at < 0 {
			votes++
		}
		if i >= c.k && idx[i-c.k] < 0 {
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
		pos := c.hotSpot(s.idx)
		lo, hi := max(0, pos-c.k+1), min(pos, len(s.kms)-1)
		covering, idx := s.kms[lo:hi+1], s.idx[lo:hi+1]
		base := covering[0].Base(pos - lo)
		score := countSolid(idx)
		bestBase, bestScore := base, score
		for d := 1; d < 4 && bestScore < len(covering); d++ {
			candidate := genome.Base((int(base) + d) % 4)
			// Substituting base pos changes window w's k-mer in the two
			// bits of its base pos−w and nowhere else.
			flip := kmer.Kmer(base ^ candidate)
			s.trial.kms = resize(s.trial.kms, len(covering))
			s.trial.idx = resize(s.trial.idx, len(covering))
			for i, km := range covering {
				s.trial.kms[i] = km ^ flip<<(2*uint(pos-lo-i))
			}
			c.solid.IndexAll(s.trial.kms, s.trial.idx)
			if n := countSolid(s.trial.idx); n > bestScore {
				bestBase, bestScore = candidate, n
				s.trial, s.best = s.best, s.trial
			}
		}
		if bestBase == base {
			break // no improvement possible at the hot spot
		}
		read.SetBase(pos, bestBase)
		copy(covering, s.best.kms)
		copy(idx, s.best.idx)
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
	return c.repair(reads, nil)
}

// CorrectCount repairs every read in place as CorrectAll does and returns,
// beside the statistics, the Tally of every k-mer of the repaired reads.
// The tally is the same for every worker count.
func (c *Corrector) CorrectCount(reads []*genome.Sequence) (Stats, *Tally) {
	t := &Tally{Reads: int64(len(reads)), keys: c.solid.Keys(), weak: kmer.NewBucketTable(c.k, c.workers)}
	for _, r := range reads {
		t.Bases += int64(r.Len())
		t.Kmers += int64(c.windows(r))
	}
	return c.repair(reads, t), t
}

// roundKmers bounds the windows of one tallying round: the weak k-mers a
// round holds before it hands them to the counter, 2 MiB of them at most,
// whatever the number of reads.
const roundKmers = 1 << 18

// worker is one chunk's state, kept from round to round.
type worker struct {
	s  scratch
	st Stats
	// counts[i] is the tallied occurrences of solid key i; nil until the
	// worker tallies its first read.
	counts []uint32
	weak   []kmer.Kmer // this round's weak k-mers, in read order
}

// repair repairs reads in rounds of contiguous reads, each cut into one
// chunk per worker, and tallies them into t unless t is nil. Without a tally
// one round holds every read. With one, a round holds at most roundKmers
// windows (or one read), and after each round the chunks' weak k-mers go to
// t's counter in chunk order, so the counter takes them in read order. Each
// chunk slot counts the solid windows into its own array, and the arrays
// are summed at the end.
func (c *Corrector) repair(reads []*genome.Sequence, t *Tally) Stats {
	st := Stats{Reads: len(reads)}
	if len(reads) == 0 {
		return st
	}
	workers := c.fanOut(len(reads))
	ws := make([]worker, workers)
	budget := math.MaxInt
	if t != nil {
		budget = roundKmers
	}
	for lo := 0; lo < len(reads); {
		hi, windows := lo+1, c.windows(reads[lo])
		for ; hi < len(reads) && windows+c.windows(reads[hi]) <= budget; hi++ {
			windows += c.windows(reads[hi])
		}
		round := reads[lo:hi]
		spans := parallel.Spans(len(round), (len(round)+workers-1)/workers)
		parallel.ForEachWorkers(workers, len(spans), func(i int) {
			w := &ws[i]
			for _, r := range round[spans[i].Lo:spans[i].Hi] {
				edits, damaged := c.correctRead(&w.s, r)
				if edits > 0 {
					w.st.Corrected++
					w.st.Edits += edits
				}
				if damaged {
					w.st.Unrepairable++
				}
				if t != nil {
					w.tally(len(t.keys))
				}
			}
		})
		if t != nil {
			for i := range spans {
				t.weak.AddKmers(ws[i].weak)
				ws[i].weak = ws[i].weak[:0]
			}
		}
		lo = hi
	}
	for i := range ws {
		w := &ws[i]
		st.Corrected += w.st.Corrected
		st.Edits += w.st.Edits
		st.Unrepairable += w.st.Unrepairable
		if w.counts != nil {
			t.add(w.counts)
		}
	}
	return st
}

// windows is how many k-mers read holds.
func (c *Corrector) windows(read *genome.Sequence) int {
	return max(read.Len()-c.k+1, 0)
}

// tally counts the windows of the read whose repair just ended in w.s: a
// solid window at its key's index, a weak one onto the round's weak k-mers.
// A count saturates, as the bucketed counter's do.
func (w *worker) tally(keys int) {
	if w.counts == nil {
		w.counts = make([]uint32, keys)
	}
	for i, at := range w.s.idx {
		if at < 0 {
			w.weak = append(w.weak, w.s.kms[i])
		} else if w.counts[at] != math.MaxUint32 {
			w.counts[at]++
		}
	}
}

// Tally is stage 1's count of the reads CorrectCount repaired, taken while
// it repaired them: the occurrences of each solid k-mer, beside the solid
// set's sorted keys, and every other k-mer's on a bucketed counter, with
// the reads' totals.
type Tally struct {
	Reads, Bases, Kmers int64 // the reads, their summed length, their k-mers

	keys   []kmer.Kmer // the solid keys, ascending
	counts []uint32    // counts[i]: the occurrences of keys[i]; nil if no read was tallied
	weak   *kmer.BucketTable
}

// add sums one chunk's solid counts into t's, saturating.
func (t *Tally) add(counts []uint32) {
	if t.counts == nil {
		t.counts = counts
		return
	}
	for i, n := range counts {
		t.counts[i] = uint32(min(uint64(t.counts[i])+uint64(n), math.MaxUint32))
	}
}

// Len returns how many distinct k-mers the repaired reads hold.
func (t *Tally) Len() int {
	n := t.weak.Len()
	for _, c := range t.counts {
		if c > 0 {
			n++
		}
	}
	return n
}

// FilterMinCount returns the tallied k-mers with count ≥ min, sorted by
// k-mer, as kmer.BucketTable.FilterMinCount returns a count of the same
// reads: the solid keys' counts merged with the weak counter's entries.
func (t *Tally) FilterMinCount(min uint32) []kmer.Entry {
	min = max(min, 1) // an untallied key's zero count must never pass
	weak := t.weak.FilterMinCount(min)
	n := len(weak)
	for _, c := range t.counts {
		if c >= min {
			n++
		}
	}
	out := make([]kmer.Entry, 0, n)
	j := 0
	for i, c := range t.counts {
		if c < min {
			continue
		}
		km := t.keys[i]
		for j < len(weak) && weak[j].Kmer < km {
			out = append(out, weak[j])
			j++
		}
		out = append(out, kmer.Entry{Kmer: km, Count: c})
	}
	return append(out, weak[j:]...)
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
