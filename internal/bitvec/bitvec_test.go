package bitvec

import (
	"testing"
	"testing/quick"

	"pimassembler/internal/stats"
)

func randomVec(rng *stats.RNG, n int) *Vector {
	v := New(n)
	for i := 0; i < n; i++ {
		v.Set(i, rng.Float64() < 0.5)
	}
	return v
}

// fromBits builds a vector from a slice of booleans (bit 0 first).
func fromBits(bits []bool) *Vector {
	v := New(len(bits))
	for i, b := range bits {
		if b {
			v.Set(i, true)
		}
	}
	return v
}

// And and Or are the operations TestMaj3AmbitIdentities checks majority
// against; the simulator computes AND and OR only as majorities.

// And sets v = a AND b elementwise.
func (v *Vector) And(a, b *Vector) {
	v.sameWidth(a)
	v.sameWidth(b)
	for i := range v.words {
		v.words[i] = a.words[i] & b.words[i]
	}
}

// Or sets v = a OR b elementwise.
func (v *Vector) Or(a, b *Vector) {
	v.sameWidth(a)
	v.sameWidth(b)
	for i := range v.words {
		v.words[i] = a.words[i] | b.words[i]
	}
}

func TestNewZeroed(t *testing.T) {
	v := New(130)
	if v.Len() != 130 {
		t.Fatalf("len %d", v.Len())
	}
	if v.PopCount() != 0 {
		t.Fatal("new vector has set bits")
	}
}

func TestNewPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(0)
}

func TestSetGet(t *testing.T) {
	v := New(200)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 199} {
		v.Set(i, true)
		if !v.Get(i) {
			t.Fatalf("bit %d not set", i)
		}
		v.Set(i, false)
		if v.Get(i) {
			t.Fatalf("bit %d not cleared", i)
		}
	}
}

func TestOutOfRangePanics(t *testing.T) {
	v := New(10)
	for _, i := range []int{-1, 10, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Get(%d) did not panic", i)
				}
			}()
			v.Get(i)
		}()
	}
}

func TestXnorTruthTable(t *testing.T) {
	a := fromBits([]bool{false, false, true, true})
	b := fromBits([]bool{false, true, false, true})
	v := New(4)
	v.Xnor(a, b)
	want := []bool{true, false, false, true}
	for i, w := range want {
		if v.Get(i) != w {
			t.Fatalf("XNOR bit %d = %v, want %v", i, v.Get(i), w)
		}
	}
}

func TestMaj3TruthTable(t *testing.T) {
	a := fromBits([]bool{false, false, false, false, true, true, true, true})
	b := fromBits([]bool{false, false, true, true, false, false, true, true})
	c := fromBits([]bool{false, true, false, true, false, true, false, true})
	v := New(8)
	v.Maj3(a, b, c)
	want := []bool{false, false, false, true, false, true, true, true}
	for i, w := range want {
		if v.Get(i) != w {
			t.Fatalf("MAJ3 bit %d = %v, want %v", i, v.Get(i), w)
		}
	}
}

func TestNotRespectsWidthMask(t *testing.T) {
	v := New(70)
	src := New(70)
	v.Not(src)
	if v.PopCount() != 70 {
		t.Fatalf("NOT of zeros popcount %d, want 70 (tail bits must stay masked)", v.PopCount())
	}
	if !v.AllOnes() {
		t.Fatal("AllOnes false after NOT of zeros")
	}
}

func TestXnorRespectsWidthMask(t *testing.T) {
	a := New(65)
	b := New(65)
	v := New(65)
	v.Xnor(a, b)
	if !v.AllOnes() {
		t.Fatal("XNOR(0,0) must be all ones within width")
	}
	if v.PopCount() != 65 {
		t.Fatalf("popcount %d, want 65", v.PopCount())
	}
}

func TestWidthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(8).Xnor(New(8), New(9))
}

func TestCloneIndependent(t *testing.T) {
	v := New(64)
	v.Set(3, true)
	c := v.Clone()
	c.Set(5, true)
	if v.Get(5) {
		t.Fatal("clone shares storage with original")
	}
	if !c.Get(3) {
		t.Fatal("clone lost bit 3")
	}
}

func TestFill(t *testing.T) {
	v := New(100)
	v.Fill(true)
	if v.PopCount() != 100 {
		t.Fatalf("fill(true) popcount %d", v.PopCount())
	}
	v.Fill(false)
	if v.PopCount() != 0 {
		t.Fatal("fill(false) left bits set")
	}
}

func TestUint64RoundTrip(t *testing.T) {
	v := New(256)
	v.SetUint64(13, 40, 0xABCDE12345)
	if got := v.Uint64(13, 40); got != 0xABCDE12345 {
		t.Fatalf("round trip got %x", got)
	}
	// Neighbouring bits untouched.
	if v.Get(12) || v.Get(53) {
		t.Fatal("SetUint64 disturbed neighbouring bits")
	}
}

func TestEqual(t *testing.T) {
	a := New(33)
	b := New(33)
	if !a.Equal(b) {
		t.Fatal("equal zero vectors reported unequal")
	}
	b.Set(32, true)
	if a.Equal(b) {
		t.Fatal("unequal vectors reported equal")
	}
	if a.Equal(New(34)) {
		t.Fatal("different widths reported equal")
	}
}

func TestString(t *testing.T) {
	v := fromBits([]bool{true, false, true})
	if s := v.String(); s != "101" {
		t.Fatalf("String() = %q", s)
	}
}

// Property: XNOR is commutative and involutive against XOR+NOT.
func TestXnorProperties(t *testing.T) {
	rng := stats.NewRNG(1)
	f := func(seed uint64) bool {
		r := stats.NewRNG(seed ^ rng.Uint64())
		n := 1 + r.Intn(300)
		a, b := randomVec(r, n), randomVec(r, n)
		ab, ba := New(n), New(n)
		ab.Xnor(a, b)
		ba.Xnor(b, a)
		if !ab.Equal(ba) {
			return false
		}
		// XNOR == NOT(XOR)
		x, nx := New(n), New(n)
		x.Xor(a, b)
		nx.Not(x)
		return ab.Equal(nx)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: MAJ3(a,b,0) == AND(a,b) and MAJ3(a,b,1) == OR(a,b) — the Ambit
// identities the PIM controller relies on.
func TestMaj3AmbitIdentities(t *testing.T) {
	rng := stats.NewRNG(2)
	f := func(seed uint64) bool {
		r := stats.NewRNG(seed ^ rng.Uint64())
		n := 1 + r.Intn(300)
		a, b := randomVec(r, n), randomVec(r, n)
		zeros, ones := New(n), New(n)
		ones.Fill(true)
		maj, and, or := New(n), New(n), New(n)
		maj.Maj3(a, b, zeros)
		and.And(a, b)
		if !maj.Equal(and) {
			return false
		}
		maj.Maj3(a, b, ones)
		or.Or(a, b)
		return maj.Equal(or)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: popcount of XOR equals Hamming distance computed bitwise.
func TestPopCountXorHamming(t *testing.T) {
	rng := stats.NewRNG(3)
	f := func(seed uint64) bool {
		r := stats.NewRNG(seed ^ rng.Uint64())
		n := 1 + r.Intn(500)
		a, b := randomVec(r, n), randomVec(r, n)
		x := New(n)
		x.Xor(a, b)
		want := 0
		for i := 0; i < n; i++ {
			if a.Get(i) != b.Get(i) {
				want++
			}
		}
		return x.PopCount() == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestNewBatchVectorsAreIndependent checks the shared backing array never
// leaks between neighbours: filling, appending-style growth of one vector's
// word slice, and odd widths all stay inside their own slot.
func TestNewBatchVectorsAreIndependent(t *testing.T) {
	for _, n := range []int{1, 64, 130, 256} {
		vs := NewBatch(n, 5)
		if len(vs) != 5 {
			t.Fatalf("width %d: got %d vectors", n, len(vs))
		}
		vs[2].Fill(true)
		for i, v := range vs {
			if v.Len() != n {
				t.Fatalf("width %d: vector %d has len %d", n, i, v.Len())
			}
			if want := i == 2; (v.PopCount() != 0) != want || v.AllOnes() != want {
				t.Fatalf("width %d: vector %d popcount %d after filling vector 2", n, i, v.PopCount())
			}
		}
		if !vs[2].Equal(vs[2].Clone()) || vs[2].Equal(New(n)) {
			t.Fatalf("width %d: batch vector does not behave like New's", n)
		}
	}
	if len(NewBatch(8, 0)) != 0 {
		t.Fatal("empty batch not empty")
	}
}
