// Package bitvec implements fixed-width bit vectors used as the digital
// representation of DRAM rows throughout the functional simulator. A vector
// corresponds to one sub-array row: bit i is the cell on bit-line (column) i.
package bitvec

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Vector is a fixed-width bit vector. The zero value is unusable; create
// vectors with New. Width is immutable after creation.
type Vector struct {
	n     int
	words []uint64
}

// New returns an all-zero vector of n bits.
func New(n int) *Vector {
	if n <= 0 {
		panic(fmt.Sprintf("bitvec: non-positive width %d", n))
	}
	return &Vector{n: n, words: make([]uint64, (n+wordBits-1)/wordBits)}
}

// NewBatch returns count all-zero vectors of n bits each, carved from one
// backing array: three allocations instead of two per vector, for callers
// that build a whole sub-array's rows at once.
func NewBatch(n, count int) []*Vector {
	if n <= 0 || count < 0 {
		panic(fmt.Sprintf("bitvec: batch of %d vectors of width %d", count, n))
	}
	per := (n + wordBits - 1) / wordBits
	words := make([]uint64, per*count)
	vecs := make([]Vector, count)
	out := make([]*Vector, count)
	for i := range vecs {
		vecs[i] = Vector{n: n, words: words[i*per : (i+1)*per : (i+1)*per]}
		out[i] = &vecs[i]
	}
	return out
}

// Len returns the vector width in bits.
func (v *Vector) Len() int { return v.n }

// Get returns bit i.
func (v *Vector) Get(i int) bool {
	v.check(i)
	return v.words[i/wordBits]&(1<<(uint(i)%wordBits)) != 0
}

// Set assigns bit i.
func (v *Vector) Set(i int, b bool) {
	v.check(i)
	if b {
		v.words[i/wordBits] |= 1 << (uint(i) % wordBits)
	} else {
		v.words[i/wordBits] &^= 1 << (uint(i) % wordBits)
	}
}

func (v *Vector) check(i int) {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("bitvec: index %d out of range [0,%d)", i, v.n))
	}
}

// Clone returns an independent copy.
func (v *Vector) Clone() *Vector {
	c := New(v.n)
	copy(c.words, v.words)
	return c
}

// CopyFrom overwrites v with src. Widths must match.
func (v *Vector) CopyFrom(src *Vector) {
	v.sameWidth(src)
	copy(v.words, src.words)
}

func (v *Vector) sameWidth(o *Vector) {
	if v.n != o.n {
		panic(fmt.Sprintf("bitvec: width mismatch %d vs %d", v.n, o.n))
	}
}

// mask returns the valid-bit mask for the last word.
func (v *Vector) mask(i int) uint64 {
	if i < len(v.words)-1 || v.n%wordBits == 0 {
		return ^uint64(0)
	}
	return (1 << (uint(v.n) % wordBits)) - 1
}

// Xnor sets v = a XNOR b elementwise.
func (v *Vector) Xnor(a, b *Vector) {
	v.sameWidth(a)
	v.sameWidth(b)
	for i := range v.words {
		v.words[i] = ^(a.words[i] ^ b.words[i]) & v.mask(i)
	}
}

// Xor sets v = a XOR b elementwise.
func (v *Vector) Xor(a, b *Vector) {
	v.sameWidth(a)
	v.sameWidth(b)
	for i := range v.words {
		v.words[i] = (a.words[i] ^ b.words[i]) & v.mask(i)
	}
}

// Not sets v = NOT a elementwise.
func (v *Vector) Not(a *Vector) {
	v.sameWidth(a)
	for i := range v.words {
		v.words[i] = ^a.words[i] & v.mask(i)
	}
}

// Maj3 sets v to the bitwise 3-input majority of a, b, c — the function an
// Ambit-style triple-row activation computes.
func (v *Vector) Maj3(a, b, c *Vector) {
	v.sameWidth(a)
	v.sameWidth(b)
	v.sameWidth(c)
	for i := range v.words {
		v.words[i] = (a.words[i] & b.words[i]) | (a.words[i] & c.words[i]) | (b.words[i] & c.words[i])
	}
}

// Fill sets every bit to b.
func (v *Vector) Fill(b bool) {
	var w uint64
	if b {
		w = ^uint64(0)
	}
	for i := range v.words {
		v.words[i] = w & v.mask(i)
	}
}

// PopCount returns the number of set bits.
func (v *Vector) PopCount() int {
	var c int
	for _, w := range v.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// AllOnes reports whether every bit is set — the DPU's row-wide AND
// reduction used for k-mer match detection.
func (v *Vector) AllOnes() bool { return v.PopCount() == v.n }

// Equal reports whether v and o hold identical bits.
func (v *Vector) Equal(o *Vector) bool {
	if v.n != o.n {
		return false
	}
	for i := range v.words {
		if v.words[i] != o.words[i] {
			return false
		}
	}
	return true
}

// SetUint64 stores the low nbits of x starting at bit offset (little-endian
// within the vector).
func (v *Vector) SetUint64(offset, nbits int, x uint64) {
	if nbits < 0 || nbits > 64 {
		panic(fmt.Sprintf("bitvec: nbits %d out of range", nbits))
	}
	for i := 0; i < nbits; i++ {
		v.Set(offset+i, x&(1<<uint(i)) != 0)
	}
}

// Uint64 extracts nbits starting at bit offset as a little-endian integer.
func (v *Vector) Uint64(offset, nbits int) uint64 {
	if nbits < 0 || nbits > 64 {
		panic(fmt.Sprintf("bitvec: nbits %d out of range", nbits))
	}
	var x uint64
	for i := 0; i < nbits; i++ {
		if v.Get(offset + i) {
			x |= 1 << uint(i)
		}
	}
	return x
}

// String renders the vector as a bit string, bit 0 first, for debugging.
func (v *Vector) String() string {
	var sb strings.Builder
	sb.Grow(v.n)
	for i := 0; i < v.n; i++ {
		if v.Get(i) {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	return sb.String()
}
