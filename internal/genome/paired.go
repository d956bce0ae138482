package genome

import (
	"fmt"

	"pimassembler/internal/stats"
)

// ReadPair is a paired-end read: two reads from the opposite ends of one
// sequenced fragment. R1 reads the fragment's leading strand left-to-right;
// R2 is the reverse complement of the fragment's tail, per Illumina
// convention (fragments are read inward from both ends).
type ReadPair struct {
	R1, R2 *Sequence
	// InsertSize is the full fragment length (R1 start to R2 start on the
	// forward strand), recorded by the generator for test oracles; real
	// pipelines estimate it.
	InsertSize int
}

// PairedSampler draws read pairs from fragments of Gaussian-distributed
// insert size — the library-preparation model mate-pair scaffolding relies
// on.
type PairedSampler struct {
	Genome     *Sequence
	ReadLen    int
	MeanInsert int
	StdInsert  float64
	ErrorRate  float64
	rng        *stats.RNG
}

// NewPairedSampler validates and builds a sampler. The mean insert must
// accommodate two reads and fit comfortably in the genome.
func NewPairedSampler(g *Sequence, readLen, meanInsert int, stdInsert, errorRate float64, rng *stats.RNG) *PairedSampler {
	if readLen <= 0 || meanInsert < 2*readLen {
		panic(fmt.Sprintf("genome: insert %d cannot hold two %d bp reads", meanInsert, readLen))
	}
	if meanInsert+int(4*stdInsert) > g.Len() {
		panic(fmt.Sprintf("genome: insert %d too large for a %d bp genome", meanInsert, g.Len()))
	}
	if errorRate < 0 || errorRate >= 1 {
		panic(fmt.Sprintf("genome: error rate %v outside [0,1)", errorRate))
	}
	return &PairedSampler{
		Genome:     g,
		ReadLen:    readLen,
		MeanInsert: meanInsert,
		StdInsert:  stdInsert,
		ErrorRate:  errorRate,
		rng:        rng,
	}
}

// Next draws one pair.
func (s *PairedSampler) Next() ReadPair {
	insert := s.MeanInsert
	if s.StdInsert > 0 {
		insert = int(s.rng.Gaussian(float64(s.MeanInsert), s.StdInsert) + 0.5)
	}
	if insert < 2*s.ReadLen {
		insert = 2 * s.ReadLen
	}
	if insert > s.Genome.Len() {
		insert = s.Genome.Len()
	}
	start := s.rng.Intn(s.Genome.Len() - insert + 1)
	r1 := s.Genome.Subsequence(start, s.ReadLen)
	r2 := s.Genome.Subsequence(start+insert-s.ReadLen, s.ReadLen).ReverseComplement()
	if s.ErrorRate > 0 {
		s.corrupt(r1)
		s.corrupt(r2)
	}
	return ReadPair{R1: r1, R2: r2, InsertSize: insert}
}

func (s *PairedSampler) corrupt(r *Sequence) {
	for i := 0; i < r.Len(); i++ {
		if s.rng.Float64() < s.ErrorRate {
			r.SetBase(i, Base((int(r.Base(i))+1+s.rng.Intn(3))%4))
		}
	}
}

// Flatten returns all individual reads of the pairs (R2 restored to the
// forward strand so single-strand assembly sees consistent k-mers), for
// feeding the contig-generation stages.
func Flatten(pairs []ReadPair) []*Sequence {
	out := make([]*Sequence, 0, 2*len(pairs))
	for _, p := range pairs {
		out = append(out, p.R1, p.R2.ReverseComplement())
	}
	return out
}
