// Package kmer implements k-mer extraction and counting: the packed k-mer
// representation and the software reference hash tables the PIM results
// are cross-checked against. The PIM-mapped hash table itself lives in
// internal/core, built on these types.
package kmer

import (
	"fmt"
	"slices"

	"pimassembler/internal/genome"
)

// MaxK is the largest supported k-mer length: 32 bases fit one uint64 at
// 2 bits per base, covering the paper's k ∈ {16, 22, 26, 32} sweep.
const MaxK = 32

// Kmer is a 2-bit-packed k-mer, base 0 in the least-significant bits, using
// the Fig. 7 encoding (T=00, G=01, A=10, C=11). The length k is carried by
// context (table, graph) rather than by the value.
type Kmer uint64

// Mask returns the valid-bit mask for length k.
func Mask(k int) uint64 {
	checkK(k)
	if k == MaxK {
		return ^uint64(0)
	}
	return (1 << (2 * uint(k))) - 1
}

func checkK(k int) {
	if k <= 0 || k > MaxK {
		panic(fmt.Sprintf("kmer: k=%d outside [1,%d]", k, MaxK))
	}
}

// Base returns base i of the k-mer.
func (km Kmer) Base(i int) genome.Base {
	return genome.Base(km >> (2 * uint(i)) & 3)
}

// String renders the k-mer as k letters.
func (km Kmer) String(k int) string {
	checkK(k)
	out := make([]byte, k)
	for i := 0; i < k; i++ {
		out[i] = km.Base(i).Letter()
	}
	return string(out)
}

// Parse converts a letter string of length ≤ MaxK into a Kmer.
func Parse(s string) (Kmer, error) {
	if len(s) == 0 || len(s) > MaxK {
		return 0, fmt.Errorf("kmer: length %d outside [1,%d]", len(s), MaxK)
	}
	var km Kmer
	for i := 0; i < len(s); i++ {
		b, err := genome.ParseBase(s[i])
		if err != nil {
			return 0, err
		}
		km |= Kmer(b) << (2 * uint(i))
	}
	return km, nil
}

// MustParse is Parse for trusted literals.
func MustParse(s string) Kmer {
	km, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return km
}

// Prefix returns the (k-1)-mer over bases [0, k-1) — node_1 of the
// DeBruijn procedure in Fig. 5c.
func (km Kmer) Prefix(k int) Kmer {
	checkK(k)
	return km & Kmer(Mask(k-1))
}

// Suffix returns the (k-1)-mer over bases [1, k) — node_2 of the DeBruijn
// procedure in Fig. 5c.
func (km Kmer) Suffix(k int) Kmer {
	checkK(k)
	return (km >> 2) & Kmer(Mask(k-1))
}

// Extend appends base b to a (k-1)-mer, producing the k-mer whose prefix is
// km: the graph-walk inverse of Suffix∘Prefix composition.
func (km Kmer) Extend(k int, b genome.Base) Kmer {
	checkK(k)
	return (km & Kmer(Mask(k-1))) | Kmer(b)<<(2*uint(k-1))
}

// LastBase returns base k-1.
func (km Kmer) LastBase(k int) genome.Base { return km.Base(k - 1) }

// Hash mixes the k-mer into a well-distributed 64-bit value
// (splitmix64 finaliser), used for both the software table and the
// sub-array home-slot assignment of the PIM mapping.
func (km Kmer) Hash() uint64 {
	z := uint64(km) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// iterChunk is how many bases Iterate unpacks at a time into its stack
// buffer, so a sequence of any length iterates without allocating.
const iterChunk = 128

// Iterate calls fn for every k-mer of s in order, reusing the rolling 2-bit
// window: the Hashmap(S, k) loop of Fig. 5b, over s's unpacked codes.
func Iterate(s *genome.Sequence, k int, fn func(Kmer)) {
	var codes [iterChunk]byte
	var kms [addBatch]Kmer
	n := s.Len()
	roll := newCodeRoller(s.AppendCodesRange(codes[:0], 0, min(n, iterChunk)), k)
	for from := iterChunk; ; from += iterChunk {
		for m := roll.fill(kms[:]); m > 0; m = roll.fill(kms[:]) {
			for _, km := range kms[:m] {
				fn(km)
			}
		}
		if from >= n {
			return
		}
		// The window carries over into the next chunk: only the codes change.
		roll.codes = s.AppendCodesRange(codes[:0], from, min(n, from+iterChunk))
	}
}

// codeRoller walks the rolling k-mer window over 2-bit codes, one byte (0-3)
// per base, as a genome.ReadSource yields them, a batch of k-mers at a time:
// no callback per k-mer. It is the one k-mer roll: the tables' AddCodes,
// AppendKmers and Iterate all fill from it.
type codeRoller struct {
	codes []byte // the bases not yet shifted in
	top   uint   // bit offset of base k-1
	km    Kmer   // the window ending at the last base shifted in
}

// newCodeRoller primes the window with the first k-1 codes. Codes shorter
// than k yield a roller that is already exhausted.
func newCodeRoller(codes []byte, k int) codeRoller {
	checkK(k)
	r := codeRoller{top: 2 * uint(k-1)}
	if len(codes) < k {
		return r
	}
	for _, c := range codes[:k-1] {
		r.km = r.km>>2 | Kmer(c&3)<<r.top
	}
	r.codes = codes[k-1:]
	return r
}

// fill writes the next k-mers into dst and returns how many it wrote: len(dst)
// or however many the codes have left.
func (r *codeRoller) fill(dst []Kmer) int {
	n := min(len(dst), len(r.codes))
	km := r.km
	for j, c := range r.codes[:n] {
		km = km>>2 | Kmer(c&3)<<r.top
		dst[j] = km
	}
	r.km, r.codes = km, r.codes[n:]
	return n
}

// AppendKmers appends all k-mers of a read given as 2-bit codes, one byte
// (0-3) per base, in order, to dst and returns the extended slice — Iterate
// into a caller-owned buffer.
func AppendKmers(dst []Kmer, codes []byte, k int) []Kmer {
	r := newCodeRoller(codes, k)
	at, n := len(dst), len(r.codes)
	dst = slices.Grow(dst, n)[:at+n]
	r.fill(dst[at:])
	return dst
}
