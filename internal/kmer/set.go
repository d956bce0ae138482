package kmer

import (
	"math"
	"math/bits"
	"slices"
)

// Set is a read-only set of k-mers: read correction's solid spectrum. It
// keeps the sorted 8-byte codes and a prefix index: start[p] is the first
// key whose top idxBits = min(bits.Len(n), 2k) code bits are ≥ p, so prefix
// p's keys, at most one on average, are keys[start[p]:start[p+1]]. A lookup
// reads the index pair and the keys, two cache lines, and hashes nothing.
type Set struct {
	keys  []Kmer // sorted, then probeKeys copies of the last; nil if empty
	start []uint32
	shift uint // 2k - idxBits
}

// probeKeys is how many keys from the start of a prefix's range IndexAll
// compares a k-mer with, taking no branch on how many the prefix holds.
const probeKeys = 4

// NewSet builds the set of the entries' k-mers, which must be sorted and
// distinct, as FilterMinCount returns them, and fewer than 2^31.
func NewSet(k int, entries []Entry) *Set {
	checkK(k)
	n := len(entries)
	if n > math.MaxInt32 {
		panic("kmer: a set's key indices must fit an int32")
	}
	idxBits := min(bits.Len(uint(n)), 2*k)
	s := &Set{start: make([]uint32, 1<<idxBits+1), shift: 2*uint(k) - uint(idxBits)}
	if n > 0 {
		s.keys = make([]Kmer, n+probeKeys)
	}
	for i, e := range entries {
		s.keys[i] = e.Kmer
		s.start[int(e.Kmer>>s.shift)+1]++
	}
	for p := 1; p < len(s.start); p++ {
		s.start[p] += s.start[p-1] // now the keys with a smaller prefix
	}
	for i := n; i < len(s.keys); i++ {
		s.keys[i] = s.keys[n-1]
	}
	return s
}

// Keys returns the set's k-mers in ascending order: key i is the k-mer
// IndexAll finds at index i. The caller must not modify them.
func (s *Set) Keys() []Kmer {
	return s.keys[:max(len(s.keys)-probeKeys, 0)]
}

// IndexAll stores in idx[i] the index of kms[i] in Keys, or −1 when the set
// does not hold it; len(idx) must be at least len(kms). A read's k-mers in
// one call leave no call per k-mer in the loop. It writes only idx, so any
// number of goroutines may look up at once.
func (s *Set) IndexAll(kms []Kmer, idx []int32) {
	idx = idx[:len(kms)]
	if s.keys == nil {
		for i := range idx {
			idx[i] = -1
		}
		return
	}
	keys, start, shift := s.keys, s.start, s.shift&63 // shift < 2k ≤ 64; the mask spares a check
	for i, km := range kms {
		p := km >> shift
		lo, hi := start[p], start[p+1]
		if hi-lo > probeKeys {
			j, ok := slices.BinarySearch(keys[lo:hi], km)
			idx[i] = -1
			if ok {
				idx[i] = int32(int(lo) + j)
			}
			continue
		}
		// Keys past the range have other prefixes, which sort after km's,
		// and the padding repeats the last key, so the window is sorted and
		// the keys below km, which borrow when km is taken from them, come
		// first. If km is in the range, n of the first three keys borrow and
		// key n is km (key 3 when all three do); if not, no key is km.
		w := (*[probeKeys]Kmer)(keys[lo:])
		_, b0 := bits.Sub64(uint64(w[0]), uint64(km), 0)
		_, b1 := bits.Sub64(uint64(w[1]), uint64(km), 0)
		_, b2 := bits.Sub64(uint64(w[2]), uint64(km), 0)
		n := b0 + b1 + b2
		at := int32(uint64(lo) + n)
		if w[n&(probeKeys-1)] != km {
			at = -1
		}
		idx[i] = at
	}
}
