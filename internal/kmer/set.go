package kmer

import (
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

// probeKeys is how many keys from the start of a prefix's range HasAll
// compares a k-mer with, taking no branch on how many the prefix holds.
const probeKeys = 4

// NewSet builds the set of the entries' k-mers, which must be sorted and
// distinct, as FilterMinCount returns them.
func NewSet(k int, entries []Entry) *Set {
	checkK(k)
	n := len(entries)
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

// HasAll stores in has[i] whether kms[i] is in the set; len(has) must be at
// least len(kms). A read's k-mers in one call leave no call per k-mer in the
// loop. It writes only has, so any number of goroutines may look up at once.
func (s *Set) HasAll(kms []Kmer, has []bool) {
	has = has[:len(kms)]
	if s.keys == nil {
		clear(has)
		return
	}
	for i, km := range kms {
		p := km >> s.shift
		lo, hi := s.start[p], s.start[p+1]
		if hi-lo > probeKeys {
			_, has[i] = slices.BinarySearch(s.keys[lo:hi], km)
			continue
		}
		// Keys past the range have other prefixes and the padding is the
		// last key, so only km itself can differ from km by zero.
		w := s.keys[lo : lo+probeKeys]
		has[i] = min(w[0]^km, w[1]^km, w[2]^km, w[3]^km) == 0
	}
}
