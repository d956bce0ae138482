package subarray

import (
	"testing"

	"pimassembler/internal/bitvec"
	"pimassembler/internal/dram"
	"pimassembler/internal/stats"
)

func newTestSubarray() *Subarray {
	return New(dram.Default(), dram.NewMeter(dram.DefaultTiming(), dram.DefaultEnergy()))
}

// totalCommands returns how many command slots m has recorded.
func totalCommands(m *dram.Meter) int64 {
	var n int64
	for _, c := range m.Counts {
		n += c
	}
	return n
}

// read returns a copy of row r through the metered memory path.
func read(s *Subarray, r int) *bitvec.Vector {
	v := bitvec.New(s.latch.Len())
	s.ReadInto(r, v)
	return v
}

func randomRow(rng *stats.RNG, n int) *bitvec.Vector {
	v := bitvec.New(n)
	for i := 0; i < n; i++ {
		v.Set(i, rng.Float64() < 0.5)
	}
	return v
}

func TestLayout(t *testing.T) {
	s := newTestSubarray()
	if s.rows != 1024 || s.latch.Len() != 256 || s.rows-s.computeRows != 1016 {
		t.Fatalf("layout %d/%d/%d", s.rows, s.latch.Len(), s.rows-s.computeRows)
	}
	if s.ComputeRow(0) != 1016 || s.ComputeRow(7) != 1023 {
		t.Fatal("compute rows misplaced")
	}
	if s.IsComputeRow(1015) || !s.IsComputeRow(1016) {
		t.Fatal("IsComputeRow boundary wrong")
	}
}

func TestComputeRowPanics(t *testing.T) {
	s := newTestSubarray()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.ComputeRow(8)
}

func TestWriteRead(t *testing.T) {
	s := newTestSubarray()
	v := randomRow(stats.NewRNG(1), 256)
	s.Write(10, v)
	if !read(s, 10).Equal(v) {
		t.Fatal("read-back mismatch")
	}
	if s.meter.Counts[dram.CmdWrite] != 1 || s.meter.Counts[dram.CmdRead] != 1 {
		t.Fatalf("counts %v", s.meter.Counts)
	}
}

func TestPeekPokeFree(t *testing.T) {
	s := newTestSubarray()
	v := randomRow(stats.NewRNG(2), 256)
	s.Poke(5, v)
	if !s.Peek(5).Equal(v) {
		t.Fatal("poke/peek mismatch")
	}
	if totalCommands(s.meter) != 0 {
		t.Fatal("peek/poke must not account commands")
	}
}

func TestRowClone(t *testing.T) {
	s := newTestSubarray()
	v := randomRow(stats.NewRNG(3), 256)
	s.Poke(0, v)
	s.RowClone(0, 100)
	if !s.Peek(100).Equal(v) {
		t.Fatal("RowClone mismatch")
	}
	if s.meter.Counts[dram.CmdAAPCopy] != 1 {
		t.Fatal("RowClone must cost one copy AAP")
	}
}

func TestTwoRowXNOR(t *testing.T) {
	s := newTestSubarray()
	rng := stats.NewRNG(4)
	a, b := randomRow(rng, 256), randomRow(rng, 256)
	x1, x2 := s.ComputeRow(0), s.ComputeRow(1)
	s.Poke(x1, a)
	s.Poke(x2, b)
	s.TwoRowXNOR(x1, x2, 50)
	want := bitvec.New(256)
	want.Xnor(a, b)
	if !s.Peek(50).Equal(want) {
		t.Fatal("XNOR result wrong")
	}
	// Destructive charge sharing: compute rows restore to the result.
	if !s.Peek(x1).Equal(want) || !s.Peek(x2).Equal(want) {
		t.Fatal("compute rows must restore to the XNOR result (Fig. 3a)")
	}
	if s.meter.Counts[dram.CmdAAP2] != 1 {
		t.Fatal("XNOR must be a single AAP cycle")
	}
}

func TestTwoRowXNORRejectsDataRows(t *testing.T) {
	s := newTestSubarray()
	defer func() {
		if recover() == nil {
			t.Fatal("two-row activation of a data row must panic: only the MRD multi-activates")
		}
	}()
	s.TwoRowXNOR(10, 11, 50)
}

func TestTwoRowXOR(t *testing.T) {
	s := newTestSubarray()
	rng := stats.NewRNG(5)
	a, b := randomRow(rng, 256), randomRow(rng, 256)
	x1, x2 := s.ComputeRow(0), s.ComputeRow(1)
	s.Poke(x1, a)
	s.Poke(x2, b)
	s.TwoRowXOR(x1, x2, 60)
	want := bitvec.New(256)
	want.Xor(a, b)
	if !s.Peek(60).Equal(want) {
		t.Fatal("XOR result wrong")
	}
}

func TestTRACarry(t *testing.T) {
	s := newTestSubarray()
	rng := stats.NewRNG(6)
	a, b, c := randomRow(rng, 256), randomRow(rng, 256), randomRow(rng, 256)
	x1, x2, x3 := s.ComputeRow(0), s.ComputeRow(1), s.ComputeRow(2)
	s.Poke(x1, a)
	s.Poke(x2, b)
	s.Poke(x3, c)
	s.TRACarry(x1, x2, x3, 70)
	want := bitvec.New(256)
	want.Maj3(a, b, c)
	if !s.Peek(70).Equal(want) {
		t.Fatal("TRA majority wrong")
	}
	if !s.latch.Equal(want) {
		t.Fatal("carry not latched")
	}
	if !s.Peek(x1).Equal(want) || !s.Peek(x3).Equal(want) {
		t.Fatal("TRA must restore majority into all three rows")
	}
	if s.meter.Counts[dram.CmdAAP3] != 1 {
		t.Fatal("TRA must be one 3-source AAP")
	}
}

func TestSumWithLatch(t *testing.T) {
	s := newTestSubarray()
	rng := stats.NewRNG(7)
	a, b, cin := randomRow(rng, 256), randomRow(rng, 256), randomRow(rng, 256)
	x1, x2, x3 := s.ComputeRow(0), s.ComputeRow(1), s.ComputeRow(2)
	// Latch cin via a TRA against itself (MAJ(c,c,c) = c).
	s.Poke(x1, cin)
	s.Poke(x2, cin)
	s.Poke(x3, cin)
	s.TRACarry(x1, x2, x3, 90)
	s.Poke(x1, a)
	s.Poke(x2, b)
	s.SumWithLatch(x1, x2, 80)
	want := bitvec.New(256)
	want.Xor(a, b)
	want.Xor(want.Clone(), cin)
	if !s.Peek(80).Equal(want) {
		t.Fatal("Sum = a XOR b XOR cin failed")
	}
}

func TestXNORConvenienceCostsThreeAAPs(t *testing.T) {
	s := newTestSubarray()
	rng := stats.NewRNG(8)
	a, b := randomRow(rng, 256), randomRow(rng, 256)
	s.Poke(1, a)
	s.Poke(2, b)
	s.XNOR(1, 2, 3)
	want := bitvec.New(256)
	want.Xnor(a, b)
	if !s.Peek(3).Equal(want) {
		t.Fatal("staged XNOR wrong")
	}
	m := s.meter
	if m.Counts[dram.CmdAAPCopy] != 2 || m.Counts[dram.CmdAAP2] != 1 {
		t.Fatalf("staged XNOR must cost 2 copies + 1 compute AAP, got %v", m.Counts)
	}
	// Operands in data rows must be preserved.
	if !s.Peek(1).Equal(a) || !s.Peek(2).Equal(b) {
		t.Fatal("staged XNOR clobbered its data-row operands")
	}
}

func TestMatchAllOnes(t *testing.T) {
	s := newTestSubarray()
	ones := bitvec.New(256)
	ones.Fill(true)
	s.Poke(4, ones)
	if !s.MatchAllOnes(4) {
		t.Fatal("all-ones row not matched")
	}
	ones.Set(137, false)
	s.Poke(4, ones)
	if s.MatchAllOnes(4) {
		t.Fatal("row with a zero bit matched")
	}
	if s.meter.Counts[dram.CmdDPU] != 2 {
		t.Fatal("DPU reduction must be metered")
	}
}

func TestResetLatch(t *testing.T) {
	s := newTestSubarray()
	ones := bitvec.New(256)
	ones.Fill(true)
	x1, x2, x3 := s.ComputeRow(0), s.ComputeRow(1), s.ComputeRow(2)
	s.Poke(x1, ones)
	s.Poke(x2, ones)
	s.Poke(x3, ones)
	s.TRACarry(x1, x2, x3, 90)
	if s.latch.PopCount() == 0 {
		t.Fatal("latch should be set")
	}
	s.ResetLatch()
	if s.latch.PopCount() != 0 {
		t.Fatal("latch should be clear")
	}
}

func TestXNOREmulatedTRAMatchesNative(t *testing.T) {
	s := newTestSubarray()
	rng := stats.NewRNG(16)
	a, b := randomRow(rng, 256), randomRow(rng, 256)
	s.Poke(0, a)
	s.Poke(1, b)
	s.XNOREmulatedTRA(0, 1, 20)
	want := bitvec.New(256)
	want.Xnor(a, b)
	if !s.Peek(20).Equal(want) {
		t.Fatal("emulated XNOR computes the wrong function")
	}
	// Source rows preserved.
	if !s.Peek(0).Equal(a) || !s.Peek(1).Equal(b) {
		t.Fatal("emulation clobbered its operands")
	}
	// The emulation must cost several times the native op.
	emuCmds := totalCommands(s.meter)
	s2 := newTestSubarray()
	s2.Poke(0, a)
	s2.Poke(1, b)
	s2.XNOR(0, 1, 20)
	if emuCmds < 5*totalCommands(s2.meter) {
		t.Fatalf("emulation used %d commands vs native %d; cost model implausible",
			emuCmds, totalCommands(s2.meter))
	}
}

func TestReadInto(t *testing.T) {
	s := newTestSubarray()
	v := randomRow(stats.NewRNG(17), 256)
	s.Write(5, v)
	dst := bitvec.New(256)
	s.ReadInto(5, dst)
	if !dst.Equal(v) {
		t.Fatal("ReadInto mismatch")
	}
	if got := s.meter.Counts[dram.CmdRead]; got != 1 {
		t.Fatalf("CmdRead count %d, want 1 (ReadInto is a metered read)", got)
	}
}

// TestFillMetersLikeWrite pins Fill as Write of a constant row: same cell
// state, same single CmdWrite.
func TestFillMetersLikeWrite(t *testing.T) {
	a, b := newTestSubarray(), newTestSubarray()
	ones := bitvec.New(256)
	ones.Fill(true)
	for _, s := range []*Subarray{a, b} {
		s.Poke(9, randomRow(stats.NewRNG(3), 256))
	}
	a.Fill(9, true)
	b.Write(9, ones)
	if !a.Peek(9).Equal(b.Peek(9)) || !a.Peek(9).AllOnes() {
		t.Fatal("Fill(true) differs from Write of an all-ones row")
	}
	a.Fill(9, false)
	if a.Peek(9).PopCount() != 0 {
		t.Fatal("Fill(false) left bits set")
	}
	if got := a.meter.Counts[dram.CmdWrite]; got != 2 || totalCommands(a.meter) != 2 {
		t.Fatalf("Fill metered %d writes of %d commands, want 2 of 2", got, totalCommands(a.meter))
	}
}
