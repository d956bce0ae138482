package kmer

import "math"

// SortEntries orders entries by ascending k-mer code in place: the shared
// sorting primitive behind CountTable.Entries, FilterMinCount, the bucket
// runs of BucketTable, and the de Bruijn graph's edge order when k-mers were
// added out of order. It replaces the old comparison sort (O(n log n)
// sort.Slice) with an LSD radix sort over the packed uint64 codes — O(n)
// passes, one pass per byte the codes actually occupy, so a k=16 table pays 4
// passes and a k=8 table 2. The sort is stable, which is stronger than the
// old sort.Slice guarantee: tables never hold duplicate keys, so their output
// order is identical either way, and a graph given one k-mer twice keeps the
// two edges in insertion order.
func SortEntries(es []Entry) { sortSlots(es, nil) }

// sortSlots is SortEntries at any code width, with a caller-owned scratch
// buffer, grown when it is shorter than es and returned for the next call.
// A 4-byte code has 4 byte lanes and an 8-byte code 8.
func sortSlots[C code](es, buf []slot[C]) []slot[C] {
	n := len(es)
	if n <= 48 {
		insertionSortSlots(es)
		return buf
	}

	// One gathering pass builds the histogram of every byte lane; uniform
	// lanes (all high bytes for small k, shared prefixes in a partition)
	// are skipped entirely.
	wide := uint64(^C(0)) > math.MaxUint32
	lanes := 4
	if wide {
		lanes = 8
	}
	var hist [8][256]int
	for _, e := range es {
		v := uint64(e.Kmer)
		hist[0][byte(v)]++
		hist[1][byte(v>>8)]++
		hist[2][byte(v>>16)]++
		hist[3][byte(v>>24)]++
		if wide {
			hist[4][byte(v>>32)]++
			hist[5][byte(v>>40)]++
			hist[6][byte(v>>48)]++
			hist[7][byte(v>>56)]++
		}
	}

	if cap(buf) < n {
		buf = make([]slot[C], n)
	}
	src, dst := es, buf[:n]
	for b := 0; b < lanes; b++ {
		h := &hist[b]
		shift := uint(8 * b)
		// The byte histogram is permutation-invariant, so src[0] probes
		// uniformity regardless of how earlier passes reordered entries.
		if h[byte(uint64(src[0].Kmer)>>shift)] == n {
			continue
		}
		var off [256]int
		sum := 0
		for i := range h {
			off[i] = sum
			sum += h[i]
		}
		for _, e := range src {
			d := byte(uint64(e.Kmer) >> shift)
			dst[off[d]] = e
			off[d]++
		}
		src, dst = dst, src
	}
	if &src[0] != &es[0] {
		copy(es, src)
	}
	return buf
}

// insertionSortSlots handles the short slices where radix bookkeeping costs
// more than it saves.
func insertionSortSlots[C code](es []slot[C]) {
	for i := 1; i < len(es); i++ {
		e := es[i]
		j := i - 1
		for j >= 0 && es[j].Kmer > e.Kmer {
			es[j+1] = es[j]
			j--
		}
		es[j+1] = e
	}
}
