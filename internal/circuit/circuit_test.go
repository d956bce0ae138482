package circuit

import (
	"math"
	"testing"

	"pimassembler/internal/stats"
)

func TestInverterRails(t *testing.T) {
	for _, inv := range []Inverter{NormalInverter(), LowVsInverter(), HighVsInverter()} {
		if out := inv.Vout(0); out < 0.95*Vdd {
			t.Errorf("Vs=%.2f: Vout(0) = %.3f, want near Vdd", inv.Vs, out)
		}
		if out := inv.Vout(Vdd); out > 0.05*Vdd {
			t.Errorf("Vs=%.2f: Vout(Vdd) = %.3f, want near 0", inv.Vs, out)
		}
		if out := inv.Vout(inv.Vs); math.Abs(out-Vdd/2) > 0.01*Vdd {
			t.Errorf("Vs=%.2f: Vout(Vs) = %.3f, want Vdd/2 at trip point", inv.Vs, out)
		}
	}
}

func TestInverterMonotonicity(t *testing.T) {
	inv := NormalInverter()
	prev := inv.Vout(0)
	for v := 0.01; v <= Vdd; v += 0.01 {
		cur := inv.Vout(v)
		if cur > prev+1e-12 {
			t.Fatalf("VTC not monotonically decreasing at %.2f", v)
		}
		prev = cur
	}
}

// The low-Vs inverter realises NOR2 and the high-Vs inverter NAND2 on the
// idealised charge-share levels, per the Fig. 2b truth table.
func TestDetectorTruthTable(t *testing.T) {
	sa := NewSenseAmp()
	cases := []struct {
		di, dj          bool
		nor, nand, xorw bool
	}{
		{false, false, true, true, false},
		{false, true, false, true, true},
		{true, false, false, true, true},
		{true, true, false, false, false},
	}
	for _, c := range cases {
		n := 0
		if c.di {
			n++
		}
		if c.dj {
			n++
		}
		nor, nand, xr := sa.DetectorOutputs(IdealShare(n, 2))
		if nor != c.nor || nand != c.nand || xr != c.xorw {
			t.Errorf("Di=%v Dj=%v: got (nor=%v nand=%v xor=%v), want (%v %v %v)",
				c.di, c.dj, nor, nand, xr, c.nor, c.nand, c.xorw)
		}
	}
}

func TestSenseXNORTruthTable(t *testing.T) {
	sa := NewSenseAmp()
	for _, di := range []bool{false, true} {
		for _, dj := range []bool{false, true} {
			xnor, xor := sa.SenseXNOR(di, dj)
			if want := di == dj; xnor != want {
				t.Errorf("XNOR(%v,%v) = %v", di, dj, xnor)
			}
			if xnor == xor {
				t.Error("BL and BLbar must be complementary")
			}
		}
	}
}

func TestSenseCarryMajority(t *testing.T) {
	sa := NewSenseAmp()
	for p := 0; p < 8; p++ {
		a, b, c := p&1 != 0, p&2 != 0, p&4 != 0
		got := sa.SenseCarry(a, b, c)
		want := b2i(a)+b2i(b)+b2i(c) >= 2
		if got != want {
			t.Errorf("MAJ(%v,%v,%v) = %v, want %v", a, b, c, got, want)
		}
		if sa.latch != got {
			t.Error("carry not latched")
		}
	}
}

func TestSenseSumFullAdder(t *testing.T) {
	sa := NewSenseAmp()
	for p := 0; p < 8; p++ {
		a, b, cin := p&1 != 0, p&2 != 0, p&4 != 0
		sa.SetLatch(cin)
		got := sa.SenseSum(a, b)
		want := (a != b) != cin
		if got != want {
			t.Errorf("SUM(%v,%v,cin=%v) = %v, want %v", a, b, cin, got, want)
		}
	}
}

func TestSenseMemoryReadsStoredValue(t *testing.T) {
	sa := NewSenseAmp()
	if sa.SenseMemory(false) {
		t.Fatal("read stored 0 as 1")
	}
	if !sa.SenseMemory(true) {
		t.Fatal("read stored 1 as 0")
	}
}

func TestEnablesMatchPaperTable(t *testing.T) {
	// XNOR2 is "01110" in (Enm, Enx, Enmux, Enc1, Enc2) order.
	e := Enables(ModeXNOR)
	if e.Enm || !e.Enx || !e.Enmux || !e.Enc1 || e.Enc2 {
		t.Fatalf("XNOR2 enables %+v do not match 01110", e)
	}
	// W/R keeps the MUX off the bit-lines.
	if w := Enables(ModeMemory); w.Enmux {
		t.Fatal("memory mode must not drive BL from the MUX")
	}
	// Carry and Sum both need the latch.
	if !Enables(ModeCarry).LatchEn || !Enables(ModeSum).LatchEn {
		t.Fatal("addition modes require the latch enable")
	}
}

func TestModeString(t *testing.T) {
	if ModeXNOR.String() != "XNOR2" || Mode(42).String() == "" {
		t.Fatal("mode names broken")
	}
}

func TestShareVoltageBounds(t *testing.T) {
	p := DefaultCellParams()
	// All-zero cells pull the bit-line below Vdd/2, all-one cells above.
	v0 := ShareVoltage(p.CBL, []float64{p.CCell, p.CCell}, []float64{0, 0})
	v2 := ShareVoltage(p.CBL, []float64{p.CCell, p.CCell}, []float64{Vdd, Vdd})
	if v0 >= Vdd/2 || v2 <= Vdd/2 {
		t.Fatalf("share voltages v0=%.3f v2=%.3f not straddling Vdd/2", v0, v2)
	}
	if v0 < 0 || v2 > Vdd {
		t.Fatal("share voltage outside rails")
	}
}

func TestShareDeviationSymmetry(t *testing.T) {
	p := DefaultCellParams()
	d0 := p.ShareDeviation(0, 2)
	d2 := p.ShareDeviation(2, 2)
	if math.Abs(d0+d2) > 1e-9 {
		t.Fatalf("deviations %v and %v not symmetric", d0, d2)
	}
	if d1 := p.ShareDeviation(1, 2); math.Abs(d1) > 1e-9 {
		t.Fatalf("n=1 of 2 deviation %v, want 0", d1)
	}
}

func TestTRAMarginIsNarrow(t *testing.T) {
	// The paper's reliability argument: the TRA margin (|deviation| between
	// minority and majority cases) is much smaller than the two-row
	// detector's Vdd/4 margins.
	p := DefaultCellParams()
	traMargin := p.ShareDeviation(2, 3) // n=2 of 3 vs the Vdd/2 threshold
	if traMargin <= 0 {
		t.Fatal("majority case must deviate positive")
	}
	if traMargin > Vdd/8 {
		t.Fatalf("TRA margin %.3f V implausibly wide", traMargin)
	}
}

func TestIdealShareLevels(t *testing.T) {
	if IdealShare(0, 2) != 0 || IdealShare(2, 2) != Vdd {
		t.Fatal("ideal share endpoints wrong")
	}
	if math.Abs(IdealShare(1, 2)-Vdd/2) > 1e-12 {
		t.Fatal("ideal share midpoint wrong")
	}
}

func TestIdealSharePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	IdealShare(3, 2)
}

func TestTransientXNORAllCases(t *testing.T) {
	cfg := DefaultTransientConfig()
	for p := 0; p < 4; p++ {
		di, dj := p&1 != 0, p&2 != 0
		samples := SimulateXNOR2(cfg, di, dj)
		if len(samples) == 0 {
			t.Fatal("no samples")
		}
		// Paper Fig. 3a: cell charges to Vdd when DiDj ∈ {00,11},
		// discharges to GND when DiDj ∈ {10,01}.
		final := FinalCellVoltage(samples)
		if di == dj && final < 0.9*Vdd {
			t.Errorf("DiDj=%v%v: final cell %.3f, want near Vdd", b2i(di), b2i(dj), final)
		}
		if di != dj && final > 0.1*Vdd {
			t.Errorf("DiDj=%v%v: final cell %.3f, want near GND", b2i(di), b2i(dj), final)
		}
		// BL carries XOR2 in this MUX configuration.
		bl := samples[len(samples)-1].VBL
		if (di != dj) && bl < 0.9*Vdd {
			t.Errorf("BL %.3f, want Vdd for XOR=1", bl)
		}
		if (di == dj) && bl > 0.1*Vdd {
			t.Errorf("BL %.3f, want GND for XOR=0", bl)
		}
	}
}

func TestTransientPhasesOrdered(t *testing.T) {
	samples := SimulateXNOR2(DefaultTransientConfig(), true, false)
	last := PhasePrecharge
	for _, s := range samples {
		if s.Phase < last {
			t.Fatal("phases not monotonically ordered")
		}
		last = s.Phase
	}
	if last != PhaseSense {
		t.Fatal("transient must end in sense phase")
	}
}

func TestTransientStartsAtPrecharge(t *testing.T) {
	samples := SimulateXNOR2(DefaultTransientConfig(), true, true)
	if math.Abs(samples[0].VBL-Vdd/2) > 1e-9 {
		t.Fatalf("initial BL %.3f, want Vdd/2", samples[0].VBL)
	}
}

func TestMonteCarloZeroVariationIsErrorFree(t *testing.T) {
	m := DefaultVariationModel()
	r := m.MonteCarlo(2000, 0, stats.NewRNG(1))
	if r.TRAErrPct != 0 || r.TwoRowErrPct != 0 {
		t.Fatalf("zero variation produced errors: %+v", r)
	}
}

func TestMonteCarloTableIShape(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-trial Monte-Carlo sweep")
	}
	m := DefaultVariationModel()
	rows := m.TableI(42)
	if len(rows) != 5 {
		t.Fatalf("expected 5 sweep points, got %d", len(rows))
	}
	// Paper-shape assertions: error-free at ±5 %, two-row error-free at
	// ±10 %, TRA strictly worse than two-row at every point with errors,
	// and both monotonically non-decreasing.
	if rows[0].TRAErrPct != 0 || rows[0].TwoRowErrPct != 0 {
		t.Errorf("±5%% must be error free: %+v", rows[0])
	}
	if rows[1].TwoRowErrPct > 0.05 {
		t.Errorf("two-row at ±10%% should be ~0, got %.2f%%", rows[1].TwoRowErrPct)
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].TRAErrPct < rows[i-1].TRAErrPct-0.5 {
			t.Errorf("TRA error not monotonic: %v -> %v", rows[i-1], rows[i])
		}
		if rows[i].TwoRowErrPct < rows[i-1].TwoRowErrPct-0.5 {
			t.Errorf("two-row error not monotonic: %v -> %v", rows[i-1], rows[i])
		}
	}
	for _, r := range rows[1:] {
		if r.TRAErrPct < r.TwoRowErrPct {
			t.Errorf("TRA must fail at least as often as two-row: %v", r)
		}
	}
	// Magnitudes in the paper's ballpark.
	if rows[2].TRAErrPct < 2 || rows[2].TRAErrPct > 12 {
		t.Errorf("TRA ±15%% error %.2f%% far from paper's 5.5%%", rows[2].TRAErrPct)
	}
	if rows[4].TRAErrPct < 20 || rows[4].TRAErrPct > 40 {
		t.Errorf("TRA ±30%% error %.2f%% far from paper's 28.4%%", rows[4].TRAErrPct)
	}
}

func TestMonteCarloDeterminism(t *testing.T) {
	m := DefaultVariationModel()
	a := m.MonteCarlo(500, 0.2, stats.NewRNG(9))
	b := m.MonteCarlo(500, 0.2, stats.NewRNG(9))
	if a != b {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
}

func TestMonteCarloPanics(t *testing.T) {
	m := DefaultVariationModel()
	for _, f := range []func(){
		func() { m.MonteCarlo(0, 0.1, stats.NewRNG(1)) },
		func() { m.MonteCarlo(10, -0.1, stats.NewRNG(1)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}
