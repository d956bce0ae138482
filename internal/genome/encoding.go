// Package genome provides the DNA substrate for PIM-Assembler: the 2-bit
// base encoding of Fig. 7, sequence containers, FASTA/FASTQ input/output,
// and the deterministic synthetic genome and short-read generator that
// substitutes for the paper's human chromosome-14 dataset (DESIGN.md §1).
package genome

import (
	"fmt"
	"slices"
)

// Base is one nucleotide. The binary code follows the paper's Fig. 7 table:
// T=00, G=01, A=10, C=11.
type Base byte

const (
	T Base = 0b00
	G Base = 0b01
	A Base = 0b10
	C Base = 0b11
)

// BaseBits is the encoding width of one base.
const BaseBits = 2

var baseLetters = [4]byte{'T', 'G', 'A', 'C'}

// Letter returns the IUPAC letter of the base.
func (b Base) Letter() byte { return baseLetters[b&3] }

// String implements fmt.Stringer.
func (b Base) String() string { return string(baseLetters[b&3]) }

// Complement returns the Watson-Crick complement. Under the Fig. 7 encoding
// the pairs A↔T (10↔00) and C↔G (11↔01) differ only in the high bit, so
// complementation is a single bit flip — one of the encoding's hardware
// conveniences.
func (b Base) Complement() Base { return b ^ 0b10 }

// baseCodes maps an ASCII byte to its 2-bit code; every byte that is not a
// base letter maps to invalidCode, whose high bits survive OR-ing codes
// together.
const invalidCode = 0xFF

var baseCodes = func() (codes [256]byte) {
	for i := range codes {
		codes[i] = invalidCode
	}
	for letters, b := range map[string]Base{"Aa": A, "Cc": C, "Gg": G, "TtUu": T} {
		for i := 0; i < len(letters); i++ {
			codes[letters[i]] = byte(b)
		}
	}
	return codes
}()

// ParseBase converts an ASCII letter (upper or lower case) to a Base.
func ParseBase(c byte) (Base, error) {
	if code := baseCodes[c]; code != invalidCode {
		return Base(code), nil
	}
	return 0, fmt.Errorf("genome: invalid base %q", c)
}

// Sequence is a DNA sequence stored 2-bit packed, four bases per byte.
type Sequence struct {
	n      int
	packed []byte
}

// NewSequence allocates an all-T sequence of length n (T encodes as 00).
func NewSequence(n int) *Sequence {
	if n < 0 {
		panic(fmt.Sprintf("genome: negative length %d", n))
	}
	return &Sequence{n: n, packed: make([]byte, (n+3)/4)}
}

// FromString parses an ASCII sequence. It returns an error on any character
// that is not A/C/G/T (case-insensitive; U maps to T).
func FromString(s string) (*Sequence, error) {
	return parseBases(s)
}

// parseBases packs ASCII text into a Sequence a byte — four bases — at a
// time; the error names the position of the first invalid character.
func parseBases[T string | []byte](text T) (*Sequence, error) {
	seq := NewSequence(len(text))
	whole := len(text) &^ 3
	for i := 0; i < whole; i += 4 {
		c0, c1, c2, c3 := baseCodes[text[i]], baseCodes[text[i+1]], baseCodes[text[i+2]], baseCodes[text[i+3]]
		if c0|c1|c2|c3 > 3 {
			return nil, firstInvalidBase(text, i)
		}
		seq.packed[i/4] = c0 | c1<<2 | c2<<4 | c3<<6
	}
	for i := whole; i < len(text); i++ {
		c := baseCodes[text[i]]
		if c > 3 {
			return nil, firstInvalidBase(text, i)
		}
		seq.packed[i/4] |= c << (uint(i%4) * 2)
	}
	return seq, nil
}

// translate writes the 2-bit code of each byte of text into dst, which is at
// least as long, and returns the index of text's first invalid byte, or -1.
// One OR over the codes tells whether any was invalid, so the loop carries no
// branch per base.
func translate(dst, text []byte) int {
	dst = dst[:len(text)]
	var seen byte
	for i, c := range text {
		code := baseCodes[c]
		dst[i] = code
		seen |= code
	}
	if seen <= 3 {
		return -1
	}
	for i, c := range text {
		if baseCodes[c] > 3 {
			return i
		}
	}
	panic("unreachable")
}

// packCodes packs 2-bit codes, one byte (0-3) per base, into a new Sequence.
func packCodes(codes []byte) *Sequence {
	seq := NewSequence(len(codes))
	whole := len(codes) &^ 3
	for i := 0; i < whole; i += 4 {
		seq.packed[i/4] = codes[i] | codes[i+1]<<2 | codes[i+2]<<4 | codes[i+3]<<6
	}
	for i := whole; i < len(codes); i++ {
		seq.packed[i/4] |= codes[i] << (uint(i%4) * 2)
	}
	return seq
}

// unpacked[b] is the four 2-bit codes packed byte b holds, base 0 first.
var unpacked = func() (t [256][4]byte) {
	for b := range t {
		for j := range t[b] {
			t[b][j] = byte(b>>(2*j)) & 3
		}
	}
	return t
}()

// AppendCodes appends the sequence's bases to dst as 2-bit codes, one byte
// (0-3) per base, and returns the extended slice: the form a ReadSource
// yields reads in, for consumers handed a Sequence instead.
func (s *Sequence) AppendCodes(dst []byte) []byte { return s.AppendCodesRange(dst, 0, s.n) }

// AppendCodesRange is AppendCodes over bases [from, to) only, so a long
// sequence can be unpacked a window at a time into a fixed buffer.
func (s *Sequence) AppendCodesRange(dst []byte, from, to int) []byte {
	if from < 0 || from > to || to > s.n {
		panic(fmt.Sprintf("genome: code range [%d,%d) out of range [0,%d)", from, to, s.n))
	}
	at := len(dst)
	dst = slices.Grow(dst, to-from)[:at+to-from]
	out := dst[at:]
	i := from
	for ; i < to && i%4 != 0; i++ {
		out[i-from] = s.packed[i/4] >> (uint(i%4) * 2) & 3
	}
	for ; i+4 <= to; i += 4 {
		*(*[4]byte)(out[i-from:]) = unpacked[s.packed[i/4]]
	}
	for ; i < to; i++ {
		out[i-from] = s.packed[i/4] >> (uint(i%4) * 2) & 3
	}
	return dst
}

// firstInvalidBase reports the first invalid character of text at or after
// from; parseBases calls it once it knows there is one.
func firstInvalidBase[T string | []byte](text T, from int) error {
	for i := from; i < len(text); i++ {
		if _, err := ParseBase(text[i]); err != nil {
			return fmt.Errorf("position %d: %w", i, err)
		}
	}
	panic("genome: firstInvalidBase called on valid text")
}

// MustFromString is FromString for trusted literals; it panics on error.
func MustFromString(s string) *Sequence {
	seq, err := FromString(s)
	if err != nil {
		panic(err)
	}
	return seq
}

// Len returns the number of bases.
func (s *Sequence) Len() int { return s.n }

// Base returns the base at position i.
func (s *Sequence) Base(i int) Base {
	s.check(i)
	return Base(s.packed[i/4] >> (uint(i%4) * 2) & 3)
}

// SetBase assigns position i.
func (s *Sequence) SetBase(i int, b Base) {
	s.check(i)
	shift := uint(i%4) * 2
	s.packed[i/4] = s.packed[i/4]&^(3<<shift) | byte(b&3)<<shift
}

func (s *Sequence) check(i int) {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("genome: index %d out of range [0,%d)", i, s.n))
	}
}

// Subsequence returns a copy of positions [from, from+length).
func (s *Sequence) Subsequence(from, length int) *Sequence {
	if from < 0 || length < 0 || from+length > s.n {
		panic(fmt.Sprintf("genome: subsequence [%d,%d+%d) out of range [0,%d)", from, from, length, s.n))
	}
	out := NewSequence(length)
	for i := 0; i < length; i++ {
		out.SetBase(i, s.Base(from+i))
	}
	return out
}

// ReverseComplement returns the reverse complement.
func (s *Sequence) ReverseComplement() *Sequence {
	out := NewSequence(s.n)
	for i := 0; i < s.n; i++ {
		out.SetBase(i, s.Base(s.n-1-i).Complement())
	}
	return out
}

// Equal reports whether two sequences hold identical bases.
func (s *Sequence) Equal(o *Sequence) bool {
	if s.n != o.n {
		return false
	}
	for i := 0; i < s.n; i++ {
		if s.Base(i) != o.Base(i) {
			return false
		}
	}
	return true
}

// String renders the sequence as ASCII letters.
func (s *Sequence) String() string {
	out := make([]byte, s.n)
	for i := 0; i < s.n; i++ {
		out[i] = s.Base(i).Letter()
	}
	return string(out)
}

// Append returns a new sequence that is s followed by o.
func (s *Sequence) Append(o *Sequence) *Sequence {
	out := NewSequence(s.n + o.n)
	for i := 0; i < s.n; i++ {
		out.SetBase(i, s.Base(i))
	}
	for i := 0; i < o.n; i++ {
		out.SetBase(s.n+i, o.Base(i))
	}
	return out
}
