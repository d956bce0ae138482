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

func randomRow(rng *stats.RNG, n int) *bitvec.Vector {
	v := bitvec.New(n)
	for i := 0; i < n; i++ {
		v.Set(i, rng.Float64() < 0.5)
	}
	return v
}

func TestLayout(t *testing.T) {
	s := newTestSubarray()
	if s.Rows() != 1024 || s.Cols() != 256 || s.DataRows() != 1016 {
		t.Fatalf("layout %d/%d/%d", s.Rows(), s.Cols(), s.DataRows())
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
	if !s.Read(10).Equal(v) {
		t.Fatal("read-back mismatch")
	}
	if s.Meter().Counts[dram.CmdWrite] != 1 || s.Meter().Counts[dram.CmdRead] != 1 {
		t.Fatalf("counts %v", s.Meter().Counts)
	}
}

func TestPeekPokeFree(t *testing.T) {
	s := newTestSubarray()
	v := randomRow(stats.NewRNG(2), 256)
	s.Poke(5, v)
	if !s.Peek(5).Equal(v) {
		t.Fatal("poke/peek mismatch")
	}
	if s.Meter().TotalCommands() != 0 {
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
	if s.Meter().Counts[dram.CmdAAPCopy] != 1 {
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
	if s.Meter().Counts[dram.CmdAAP2] != 1 {
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
	if !s.LatchState().Equal(want) {
		t.Fatal("carry not latched")
	}
	if !s.Peek(x1).Equal(want) || !s.Peek(x3).Equal(want) {
		t.Fatal("TRA must restore majority into all three rows")
	}
	if s.Meter().Counts[dram.CmdAAP3] != 1 {
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
	m := s.Meter()
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
	if s.Meter().Counts[dram.CmdDPU] != 2 {
		t.Fatal("DPU reduction must be metered")
	}
}

func TestDPUPopCount(t *testing.T) {
	s := newTestSubarray()
	v := bitvec.New(256)
	for i := 0; i < 77; i++ {
		v.Set(i*3%256, true)
	}
	s.Poke(9, v)
	if got := s.DPUPopCount(9); got != v.PopCount() {
		t.Fatalf("popcount %d, want %d", got, v.PopCount())
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
	if !s.LatchState().AnySet() {
		t.Fatal("latch should be set")
	}
	s.ResetLatch()
	if s.LatchState().AnySet() {
		t.Fatal("latch should be clear")
	}
}

func TestTwoRowNORAndNAND(t *testing.T) {
	s := newTestSubarray()
	rng := stats.NewRNG(14)
	a, b := randomRow(rng, 256), randomRow(rng, 256)
	x1, x2 := s.ComputeRow(0), s.ComputeRow(1)

	s.Poke(x1, a)
	s.Poke(x2, b)
	s.TwoRowNOR(x1, x2, 30)
	wantNOR := bitvec.New(256)
	or := bitvec.New(256)
	or.Or(a, b)
	wantNOR.Not(or)
	if !s.Peek(30).Equal(wantNOR) {
		t.Fatal("NOR result wrong")
	}

	s.Poke(x1, a)
	s.Poke(x2, b)
	s.TwoRowNAND(x1, x2, 31)
	wantNAND := bitvec.New(256)
	and := bitvec.New(256)
	and.And(a, b)
	wantNAND.Not(and)
	if !s.Peek(31).Equal(wantNAND) {
		t.Fatal("NAND result wrong")
	}
}

// Fig. 2b identity: XOR2 = NAND2 AND NOT(NOR2); the SA's three outputs must
// be mutually consistent on the functional model as well.
func TestDetectorIdentity(t *testing.T) {
	s := newTestSubarray()
	rng := stats.NewRNG(15)
	a, b := randomRow(rng, 256), randomRow(rng, 256)
	x1, x2 := s.ComputeRow(0), s.ComputeRow(1)

	s.Poke(x1, a)
	s.Poke(x2, b)
	s.TwoRowNOR(x1, x2, 40)
	s.Poke(x1, a)
	s.Poke(x2, b)
	s.TwoRowNAND(x1, x2, 41)
	s.Poke(x1, a)
	s.Poke(x2, b)
	s.TwoRowXOR(x1, x2, 42)

	notNor := bitvec.New(256)
	notNor.Not(s.Peek(40))
	expect := bitvec.New(256)
	expect.And(s.Peek(41), notNor)
	if !s.Peek(42).Equal(expect) {
		t.Fatal("XOR != NAND AND NOT(NOR)")
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
	emuCmds := s.Meter().TotalCommands()
	s2 := newTestSubarray()
	s2.Poke(0, a)
	s2.Poke(1, b)
	s2.XNOR(0, 1, 20)
	if emuCmds < 5*s2.Meter().TotalCommands() {
		t.Fatalf("emulation used %d commands vs native %d; cost model implausible",
			emuCmds, s2.Meter().TotalCommands())
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
	if !dst.Equal(s.Read(5)) {
		t.Fatal("ReadInto disagrees with Read")
	}
	if got := s.Meter().Counts[dram.CmdRead]; got != 2 {
		t.Fatalf("CmdRead count %d, want 2 (ReadInto must meter like Read)", got)
	}
}

func TestSetMeterSwapsAndRestores(t *testing.T) {
	s := newTestSubarray()
	orig := s.Meter()
	private := dram.NewMeter(dram.DefaultTiming(), dram.DefaultEnergy())
	if prev := s.SetMeter(private); prev != orig {
		t.Fatal("SetMeter did not return the previous meter")
	}
	s.Write(3, randomRow(stats.NewRNG(18), 256))
	if private.Counts[dram.CmdWrite] != 1 || orig.Counts[dram.CmdWrite] != 0 {
		t.Fatal("command metered on the wrong meter after swap")
	}
	s.SetMeter(orig)
	s.Read(3)
	if orig.Counts[dram.CmdRead] != 1 {
		t.Fatal("command not metered on the restored meter")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("nil meter accepted")
		}
	}()
	s.SetMeter(nil)
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
	if a.Peek(9).AnySet() {
		t.Fatal("Fill(false) left bits set")
	}
	if got := a.Meter().Counts[dram.CmdWrite]; got != 2 || a.Meter().TotalCommands() != 2 {
		t.Fatalf("Fill metered %d writes of %d commands, want 2 of 2", got, a.Meter().TotalCommands())
	}
}
