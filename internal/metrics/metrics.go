// Package metrics computes assembly quality metrics against a known
// reference — the evaluation toolkit the examples and robustness tests use
// to judge contig sets: genome fraction, largest alignment, NGA-style
// statistics, duplication, and a substring-based misassembly check. With a
// synthetic reference genome (this repository's substitute for chr14) exact
// substring containment is the appropriate alignment model.
package metrics

import (
	"fmt"
	"sort"
	"strings"

	"pimassembler/internal/debruijn"
	"pimassembler/internal/genome"
)

// Report is the quality summary of a contig set against a reference.
type Report struct {
	Contigs        int
	TotalBases     int
	ReferenceLen   int
	N50            int
	NG50           int // N50 computed against the reference length
	LargestContig  int
	LargestAligned int     // longest contig that is an exact reference substring
	GenomeFraction float64 // fraction of reference positions covered by aligned contigs
	Duplication    float64 // aligned bases / covered reference bases
	Misassembled   int     // contigs that are not reference substrings
}

// String implements fmt.Stringer.
func (r Report) String() string {
	return fmt.Sprintf(
		"contigs=%d bases=%d N50=%d NG50=%d largest=%d genome-fraction=%.1f%% dup=%.2f misassembled=%d",
		r.Contigs, r.TotalBases, r.N50, r.NG50, r.LargestContig,
		100*r.GenomeFraction, r.Duplication, r.Misassembled)
}

// Evaluate scores contigs against the reference with exact substring
// alignment (appropriate for clean synthetic references): a contig that is
// no substring of the reference counts as misassembled.
func Evaluate(contigs []debruijn.Contig, ref *genome.Sequence) Report {
	rep := Report{
		Contigs:      len(contigs),
		ReferenceLen: ref.Len(),
		N50:          debruijn.N50(contigs),
		TotalBases:   debruijn.TotalBases(contigs),
	}
	text := ref.String()
	covered := make([]bool, ref.Len())
	var alignedBases int

	lengths := make([]int, 0, len(contigs))
	for _, c := range contigs {
		cl := c.Seq.Len()
		lengths = append(lengths, cl)
		if cl > rep.LargestContig {
			rep.LargestContig = cl
		}
		s := c.Seq.String()
		idx := strings.Index(text, s)
		if idx < 0 {
			rep.Misassembled++
			continue
		}
		if cl > rep.LargestAligned {
			rep.LargestAligned = cl
		}
		alignedBases += cl
		// Mark every occurrence as covered (repeat contigs legitimately
		// align to several places; coverage counts positions once).
		for at := idx; at >= 0; {
			for i := 0; i < cl; i++ {
				covered[at+i] = true
			}
			next := strings.Index(text[at+1:], s)
			if next < 0 {
				break
			}
			at = at + 1 + next
		}
	}

	coveredCount := 0
	for _, c := range covered {
		if c {
			coveredCount++
		}
	}
	if ref.Len() > 0 {
		rep.GenomeFraction = float64(coveredCount) / float64(ref.Len())
	}
	if coveredCount > 0 {
		rep.Duplication = float64(alignedBases) / float64(coveredCount)
	}

	// NG50: the largest L such that contigs of length >= L sum to at least
	// half the *reference* length.
	sort.Sort(sort.Reverse(sort.IntSlice(lengths)))
	acc := 0
	for _, l := range lengths {
		acc += l
		if 2*acc >= ref.Len() {
			rep.NG50 = l
			break
		}
	}
	return rep
}
