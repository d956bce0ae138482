package subarray

import (
	"testing"
	"testing/quick"

	"pimassembler/internal/bitvec"
	"pimassembler/internal/dram"
	"pimassembler/internal/stats"
)

// pokePlanar stores the m-bit values vals (one per lane) bit-planar at base.
func pokePlanar(s *Subarray, base, m int, vals []uint64) {
	for bit := 0; bit < m; bit++ {
		row := bitvec.New(s.latch.Len())
		for lane, v := range vals {
			row.Set(lane, v&(1<<uint(bit)) != 0)
		}
		s.Poke(base+bit, row)
	}
}

// peekPlanar extracts m-bit lane values stored bit-planar at base.
func peekPlanar(s *Subarray, base, m, lanes int) []uint64 {
	out := make([]uint64, lanes)
	for bit := 0; bit < m; bit++ {
		row := s.Peek(base + bit)
		for lane := 0; lane < lanes; lane++ {
			if row.Get(lane) {
				out[lane] |= 1 << uint(bit)
			}
		}
	}
	return out
}

func TestBitSerialAddKnown(t *testing.T) {
	s := newTestSubarray()
	a := []uint64{0, 1, 5, 15, 7, 8}
	b := []uint64{0, 1, 10, 15, 9, 8}
	pokePlanar(s, 0, 4, a)
	pokePlanar(s, 10, 4, b)
	s.BitSerialAdd(0, 10, 20, 30, 4)
	got := peekPlanar(s, 20, 5, len(a))
	for i := range a {
		if got[i] != a[i]+b[i] {
			t.Errorf("lane %d: %d + %d = %d", i, a[i], b[i], got[i])
		}
	}
}

func TestBitSerialAddCycleCount(t *testing.T) {
	s := newTestSubarray()
	pokePlanar(s, 0, 8, []uint64{3})
	pokePlanar(s, 10, 8, []uint64{200})
	s.BitSerialAdd(0, 10, 20, 30, 8)
	m := s.meter
	// The paper counts 2·m compute cycles: one Sum AAP and one Carry (TRA)
	// AAP per bit position.
	if got := m.Counts[dram.CmdAAP2]; got != 8 {
		t.Errorf("sum AAPs %d, want m=8", got)
	}
	if got := m.Counts[dram.CmdAAP3]; got != 8 {
		t.Errorf("carry AAPs %d, want m=8", got)
	}
}

// Property: bit-serial in-memory addition equals integer addition for all
// lane values, any width 1..16.
func TestBitSerialAddProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		m := 1 + rng.Intn(16)
		s := newTestSubarray()
		lanes := s.latch.Len()
		a := make([]uint64, lanes)
		b := make([]uint64, lanes)
		mask := uint64(1)<<uint(m) - 1
		for i := 0; i < lanes; i++ {
			a[i] = rng.Uint64() & mask
			b[i] = rng.Uint64() & mask
		}
		pokePlanar(s, 0, m, a)
		pokePlanar(s, 100, m, b)
		s.BitSerialAdd(0, 100, 200, 300, m)
		got := peekPlanar(s, 200, m+1, lanes)
		for i := 0; i < lanes; i++ {
			if got[i] != a[i]+b[i] {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 20}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestCarrySave3(t *testing.T) {
	s := newTestSubarray()
	rng := stats.NewRNG(10)
	a, b, c := randomRow(rng, 256), randomRow(rng, 256), randomRow(rng, 256)
	s.Poke(0, a)
	s.Poke(1, b)
	s.Poke(2, c)
	s.CarrySave3(0, 1, 2, 10, 11)
	wantSum := bitvec.New(256)
	wantSum.Xor(a, b)
	wantSum.Xor(wantSum.Clone(), c)
	wantCarry := bitvec.New(256)
	wantCarry.Maj3(a, b, c)
	if !s.Peek(10).Equal(wantSum) {
		t.Fatal("CSA sum wrong")
	}
	if !s.Peek(11).Equal(wantCarry) {
		t.Fatal("CSA carry wrong")
	}
	// Sources intact.
	if !s.Peek(0).Equal(a) || !s.Peek(1).Equal(b) || !s.Peek(2).Equal(c) {
		t.Fatal("CSA clobbered source rows")
	}
}

func TestPopCountRowsKnown(t *testing.T) {
	s := newTestSubarray()
	// 7 one-bit rows; lane i has bit set in rows 0..(i mod 8)-1, so lane
	// popcounts cycle 0..7.
	n := 7
	src := make([]int, n)
	for r := 0; r < n; r++ {
		src[r] = r
		row := bitvec.New(256)
		for lane := 0; lane < 256; lane++ {
			if r < lane%8 {
				row.Set(lane, true)
			}
		}
		s.Poke(r, row)
	}
	m := 4
	scratch := make([]int, n+3*m+4)
	for i := range scratch {
		scratch[i] = 100 + i
	}
	s.PopCountRows(src, 50, scratch, m)
	got := peekPlanar(s, 50, m, 256)
	for lane := 0; lane < 256; lane++ {
		want := uint64(lane % 8)
		if want > uint64(n) {
			want = uint64(n)
		}
		if got[lane] != want {
			t.Fatalf("lane %d popcount %d, want %d", lane, got[lane], want)
		}
	}
}

// Property: PopCountRows matches per-lane popcount for random inputs.
func TestPopCountRowsProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		s := newTestSubarray()
		n := 1 + rng.Intn(20)
		m := 5
		src := make([]int, n)
		want := make([]uint64, 256)
		for r := 0; r < n; r++ {
			src[r] = r
			row := randomRow(rng, 256)
			s.Poke(r, row)
			for lane := 0; lane < 256; lane++ {
				if row.Get(lane) {
					want[lane]++
				}
			}
		}
		scratch := make([]int, n+3*m+4)
		for i := range scratch {
			scratch[i] = 200 + i
		}
		s.PopCountRows(src, 100, scratch, m)
		got := peekPlanar(s, 100, m, 256)
		for lane := 0; lane < 256; lane++ {
			if got[lane] != want[lane] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestPopCountRowsPanicsOnTinyCounter(t *testing.T) {
	s := newTestSubarray()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic: counter too narrow")
		}
	}()
	src := []int{0, 1, 2, 3}
	s.PopCountRows(src, 50, []int{100, 101, 102, 103, 104, 105, 106, 107, 108, 109, 110, 111}, 2)
}

func TestPopCountRowsPanicsOnScratchShortage(t *testing.T) {
	s := newTestSubarray()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic: scratch shortage")
		}
	}()
	s.PopCountRows([]int{0, 1, 2}, 50, []int{100, 101}, 4)
}

func TestBitSerialAddPanicsOnZeroWidth(t *testing.T) {
	s := newTestSubarray()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.BitSerialAdd(0, 10, 20, 30, 0)
}
