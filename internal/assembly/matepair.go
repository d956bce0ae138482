package assembly

import (
	"fmt"
	"sort"

	"pimassembler/internal/debruijn"
	"pimassembler/internal/genome"
	"pimassembler/internal/kmer"
)

// Mate-pair scaffolding: the insert-size-informed version of stage 3.
// Paired reads whose two ends anchor on different contigs witness those
// contigs' relative order and separation; accumulating the witnesses links
// contigs into ordered chains with estimated gaps — the step that closes
// the paper's "gaps between contigs" with evidence rather than overlap
// greed.

// MateScaffold is an ordered contig chain. Gaps[i] is the estimated gap in
// bases between Contigs[i] and Contigs[i+1] (negative means the contigs
// should overlap).
type MateScaffold struct {
	Contigs []int
	Gaps    []int
	// Support is the total number of read pairs backing the chain's links.
	Support int
}

// contigAnchor locates a read on a contig: which contig and at what offset.
type contigAnchor struct {
	contig int
	offset int
	unique bool
}

// anchorIndex maps k-mers to their (unique) contig positions.
type anchorIndex struct {
	k     int
	sites map[kmer.Kmer]contigAnchor
}

func buildAnchorIndex(contigs []debruijn.Contig, k int) *anchorIndex {
	idx := &anchorIndex{k: k, sites: make(map[kmer.Kmer]contigAnchor)}
	for ci, c := range contigs {
		offset := 0
		kmer.Iterate(c.Seq, k, func(km kmer.Kmer) {
			if prev, seen := idx.sites[km]; seen {
				prev.unique = false
				idx.sites[km] = prev
			} else {
				idx.sites[km] = contigAnchor{contig: ci, offset: offset, unique: true}
			}
			offset++
		})
	}
	return idx
}

// anchor locates a read by its first uniquely-placed k-mer.
func (idx *anchorIndex) anchor(read *genome.Sequence) (contigAnchor, bool) {
	found := contigAnchor{}
	ok := false
	pos := 0
	kmer.Iterate(read, idx.k, func(km kmer.Kmer) {
		if ok {
			return
		}
		if a, seen := idx.sites[km]; seen && a.unique {
			// Project the read's start position onto the contig.
			found = contigAnchor{contig: a.contig, offset: a.offset - pos, unique: true}
			ok = true
		}
		pos++
	})
	return found, ok
}

// link accumulates evidence between an ordered contig pair.
type link struct {
	votes  int
	gapSum int
}

// MatePairScaffold orders contigs using paired-end evidence. k is the
// anchoring k-mer length (use the assembly k), meanInsert the library's
// mean insert size, and minSupport the number of concordant pairs required
// before a link is trusted.
func MatePairScaffold(contigs []debruijn.Contig, pairs []genome.ReadPair, k, meanInsert, minSupport int) []MateScaffold {
	if k <= 0 || k > kmer.MaxK {
		panic(fmt.Sprintf("assembly: k=%d outside [1,%d]", k, kmer.MaxK))
	}
	if minSupport <= 0 {
		panic(fmt.Sprintf("assembly: minSupport %d must be positive", minSupport))
	}
	idx := buildAnchorIndex(contigs, k)

	links := make(map[[2]int]*link)
	for _, p := range pairs {
		if p.R1.Len() < k || p.R2.Len() < k {
			continue
		}
		a1, ok1 := idx.anchor(p.R1)
		// R2 is reverse-complemented; its forward-strand image anchors the
		// fragment tail.
		fwd2 := p.R2.ReverseComplement()
		a2, ok2 := idx.anchor(fwd2)
		if !ok1 || !ok2 || a1.contig == a2.contig {
			continue
		}
		// Gap = insert − (tail of contig A past R1) − (head of contig B
		// through R2's end).
		lenA := contigs[a1.contig].Seq.Len()
		gap := meanInsert - (lenA - a1.offset) - (a2.offset + fwd2.Len())
		key := [2]int{a1.contig, a2.contig}
		l := links[key]
		if l == nil {
			l = &link{}
			links[key] = l
		}
		l.votes++
		l.gapSum += gap
	}

	// Greedy chaining: strongest links first; each contig gets at most one
	// successor and one predecessor; reject cycles.
	type cand struct {
		from, to int
		votes    int
		gap      int
	}
	var cands []cand
	for key, l := range links {
		if l.votes >= minSupport {
			cands = append(cands, cand{key[0], key[1], l.votes, l.gapSum / l.votes})
		}
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].votes != cands[b].votes {
			return cands[a].votes > cands[b].votes
		}
		if cands[a].from != cands[b].from {
			return cands[a].from < cands[b].from
		}
		return cands[a].to < cands[b].to
	})

	next := make(map[int]cand)
	prev := make(map[int]int)
	chainEnd := make(map[int]int) // chain head -> current tail, for cycle checks
	head := make(map[int]int)     // contig -> its chain head
	for i := range contigs {
		head[i] = i
		chainEnd[i] = i
	}
	for _, c := range cands {
		if _, taken := next[c.from]; taken {
			continue
		}
		if _, taken := prev[c.to]; taken {
			continue
		}
		if head[c.from] == head[c.to] {
			continue // would close a cycle
		}
		next[c.from] = c
		prev[c.to] = c.from
		// Merge chains: everything in to's chain now heads at from's head.
		h := head[c.from]
		tail := chainEnd[head[c.to]]
		for n := c.to; ; {
			head[n] = h
			nx, okn := next[n]
			if !okn {
				break
			}
			n = nx.to
		}
		chainEnd[h] = tail
	}

	// Emit chains from heads.
	var out []MateScaffold
	for i := range contigs {
		if _, hasPrev := prev[i]; hasPrev {
			continue
		}
		ms := MateScaffold{Contigs: []int{i}}
		for cur := i; ; {
			c, ok := next[cur]
			if !ok {
				break
			}
			ms.Contigs = append(ms.Contigs, c.to)
			ms.Gaps = append(ms.Gaps, c.gap)
			ms.Support += c.votes
			cur = c.to
		}
		out = append(out, ms)
	}
	sort.Slice(out, func(a, b int) bool {
		if len(out[a].Contigs) != len(out[b].Contigs) {
			return len(out[a].Contigs) > len(out[b].Contigs)
		}
		return out[a].Contigs[0] < out[b].Contigs[0]
	})
	return out
}
