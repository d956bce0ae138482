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

// FromSequence packs the first k bases of s into a Kmer.
func FromSequence(s *genome.Sequence, k int) Kmer {
	checkK(k)
	if s.Len() < k {
		panic(fmt.Sprintf("kmer: sequence length %d shorter than k=%d", s.Len(), k))
	}
	return Kmer(s.PackBits(0, k))
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

// Iterate calls fn for every k-mer of s in order, reusing the rolling 2-bit
// window: the Hashmap(S, k) loop of Fig. 5b.
func Iterate(s *genome.Sequence, k int, fn func(Kmer)) {
	checkK(k)
	if s.Len() < k {
		return
	}
	km := FromSequence(s, k)
	fn(km)
	for i := k; i < s.Len(); i++ {
		km = (km >> 2) | Kmer(s.Base(i))<<(2*uint(k-1))
		fn(km)
	}
}

// roller walks the rolling k-mer window of Iterate over a sequence's packed
// bytes, a batch of k-mers at a time: no per-base bounds-checked Base call
// and no callback per k-mer. Same k-mers, same order as Iterate.
type roller struct {
	packed []byte
	next   int  // next base to shift in
	n      int  // sequence length
	top    uint // bit offset of base k-1
	km     Kmer // the window ending at base next-1
}

// newRoller primes the window with the first k-1 bases of s. A sequence
// shorter than k yields a roller that is already exhausted.
func newRoller(s *genome.Sequence, k int) roller {
	checkK(k)
	r := roller{packed: s.Packed(), n: s.Len(), top: 2 * uint(k-1)}
	if r.n < k {
		r.next = r.n
		return r
	}
	for ; r.next < k-1; r.next++ {
		r.km = r.km>>2 | r.base(r.next)<<r.top
	}
	return r
}

func (r *roller) base(i int) Kmer { return Kmer(r.packed[i>>2] >> (uint(i&3) * 2) & 3) }

// fill writes the next k-mers into dst and returns how many it wrote: len(dst)
// or however many the sequence has left.
func (r *roller) fill(dst []Kmer) int {
	dst = dst[:min(len(dst), r.n-r.next)]
	km, i := r.km, r.next
	for j := range dst {
		km = km>>2 | r.base(i)<<r.top
		dst[j] = km
		i++
	}
	r.km, r.next = km, i
	return len(dst)
}

// codeRoller is roller over 2-bit codes, one byte (0-3) per base, as
// genome.CodeSource yields them: the window a table's AddCodes rolls. Same
// k-mers, same order as roller over the packed sequence of the same bases.
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

// AppendKmers appends all k-mers of s, in order, to dst and returns the
// extended slice — Iterate into a caller-owned buffer.
func AppendKmers(dst []Kmer, s *genome.Sequence, k int) []Kmer {
	r := newRoller(s, k)
	at, n := len(dst), r.n-r.next
	dst = slices.Grow(dst, n)[:at+n]
	r.fill(dst[at:])
	return dst
}
