package dram

import (
	"math"
	"testing"
)

func TestDefaultGeometryMatchesPaper(t *testing.T) {
	g := Default()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.RowsPerSubarray != 1024 || g.ColsPerSubarray != 256 {
		t.Fatalf("sub-array %dx%d, paper uses 1024x256", g.RowsPerSubarray, g.ColsPerSubarray)
	}
	if g.DataRows() != 1016 {
		t.Fatalf("data rows %d, paper splits 1016 data + 8 compute", g.DataRows())
	}
	if g.ComputeRows != 8 {
		t.Fatalf("compute rows %d, want 8", g.ComputeRows)
	}
	if g.MATsPerBank() != 16 {
		t.Fatalf("MATs per bank %d, paper uses 4x4", g.MATsPerBank())
	}
	if g.Banks() != 256 {
		t.Fatalf("banks %d, paper uses 16x16 per group", g.Banks())
	}
}

func TestGeometryDerivedCounts(t *testing.T) {
	g := Default()
	if got := g.SubarraysPerBank(); got != g.MATsPerBank()*g.SubarraysPerMAT {
		t.Fatalf("SubarraysPerBank %d inconsistent", got)
	}
	if got := g.TotalSubarrays(); got != g.Banks()*g.SubarraysPerBank() {
		t.Fatalf("TotalSubarrays %d inconsistent", got)
	}
	if got := g.ActiveSubarrays(); got != g.ActiveBanks*g.SubarraysPerBank() {
		t.Fatalf("ActiveSubarrays %d inconsistent", got)
	}
	if got := g.ParallelBits(); got != g.ActiveSubarrays()*256 {
		t.Fatalf("ParallelBits %d inconsistent", got)
	}
}

func TestGeometryValidateRejectsBadConfigs(t *testing.T) {
	cases := []func(*Geometry){
		func(g *Geometry) { g.RowsPerSubarray = 0 },
		func(g *Geometry) { g.ColsPerSubarray = -1 },
		func(g *Geometry) { g.ComputeRows = 0 },
		func(g *Geometry) { g.ComputeRows = g.RowsPerSubarray },
		func(g *Geometry) { g.ReservedRows = -1 },
		func(g *Geometry) { g.SubarraysPerMAT = 0 },
		func(g *Geometry) { g.BankRows = 0 },
		func(g *Geometry) { g.ActiveBanks = 0 },
		func(g *Geometry) { g.ActiveBanks = g.Banks() + 1 },
	}
	for i, mutate := range cases {
		g := Default()
		mutate(&g)
		if err := g.Validate(); err == nil {
			t.Errorf("case %d: invalid geometry accepted: %+v", i, g)
		}
	}
}

func TestTimingDerived(t *testing.T) {
	tm := DefaultTiming()
	if err := tm.Validate(); err != nil {
		t.Fatal(err)
	}
	if got, want := tm.AAP(), 2*tm.TRAS+tm.TRP; got != want {
		t.Fatalf("AAP %v, want %v", got, want)
	}
	if tm.AAP() <= tm.TRAS+tm.TRP {
		t.Fatal("AAP must cost more than a single row cycle")
	}
}

func TestTimingValidateRejectsBad(t *testing.T) {
	tm := DefaultTiming()
	tm.TRAS = tm.TRCD / 2
	if err := tm.Validate(); err == nil {
		t.Fatal("tRAS < tRCD accepted")
	}
	tm = DefaultTiming()
	tm.TCK = 0
	if err := tm.Validate(); err == nil {
		t.Fatal("zero tCK accepted")
	}
}

func TestEnergyActivation(t *testing.T) {
	e := DefaultEnergy()
	if err := e.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := e.ActivationEnergy(0); got != 0 {
		t.Fatalf("0-row activation energy %v", got)
	}
	one := e.ActivationEnergy(1)
	two := e.ActivationEnergy(2)
	three := e.ActivationEnergy(3)
	if one != e.EActivate {
		t.Fatalf("single activation %v, want %v", one, e.EActivate)
	}
	if two <= one || three <= two {
		t.Fatal("multi-row activation energy must increase with rows")
	}
	if two >= 2*one {
		t.Fatal("second row must cost less than a full activation (shared restore)")
	}
}

func TestAAPEnergyComputePremium(t *testing.T) {
	e := DefaultEnergy()
	plain := e.AAPEnergy(1, 1, false)
	compute := e.AAPEnergy(2, 1, true)
	if compute <= plain {
		t.Fatal("compute AAP with 2 source rows must cost more than a copy AAP")
	}
}

func TestMeterAccounting(t *testing.T) {
	m := NewMeter(DefaultTiming(), DefaultEnergy())
	m.Record(CmdAAP2, 4)
	if m.Counts[CmdAAP2] != 1 {
		t.Fatalf("count %d", m.Counts[CmdAAP2])
	}
	if m.LatencyNS != DefaultTiming().AAP() {
		t.Fatalf("latency %v, want one AAP", m.LatencyNS)
	}
	wantE := 4 * DefaultEnergy().AAPEnergy(2, 1, true)
	if math.Abs(m.EnergyPJ-wantE) > 1e-9 {
		t.Fatalf("energy %v, want %v", m.EnergyPJ, wantE)
	}
}

func TestMeterParallelEnergyScalesNotLatency(t *testing.T) {
	seq := NewMeter(DefaultTiming(), DefaultEnergy())
	par := NewMeter(DefaultTiming(), DefaultEnergy())
	seq.Record(CmdAAPCopy, 1)
	par.Record(CmdAAPCopy, 100)
	if seq.LatencyNS != par.LatencyNS {
		t.Fatal("broadcast command latency must not scale with sub-array count")
	}
	if par.EnergyPJ <= seq.EnergyPJ {
		t.Fatal("broadcast command energy must scale with sub-array count")
	}
}

func TestCommandKindString(t *testing.T) {
	if CmdAAP3.String() != "AAP.3src" {
		t.Fatalf("got %q", CmdAAP3.String())
	}
	if CommandKind(99).String() == "" {
		t.Fatal("unknown kind must still render")
	}
}

func TestThroughputConfigUses8Banks(t *testing.T) {
	g := ThroughputConfig()
	if g.ActiveBanks != 8 {
		t.Fatalf("throughput config active banks %d, paper §II-B uses 8", g.ActiveBanks)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestKindTablesMatchPricingFunctions pins the tables the Meter, the
// scheduler and the stream attribution price with to Duration and EnergyOf,
// value for value, and the Meter to the tables.
func TestKindTablesMatchPricingFunctions(t *testing.T) {
	tm, en := DefaultTiming(), DefaultEnergy()
	dur, pj := DurationTable(tm), EnergyTable(en)
	m := NewMeter(tm, en)
	var ns, e float64
	for k := 0; k < NumCommandKinds; k++ {
		kind := CommandKind(k)
		if dur[k] != Duration(kind, tm) || pj[k] != EnergyOf(kind, en) {
			t.Fatalf("%v: table (%v, %v), functions (%v, %v)", kind, dur[k], pj[k], Duration(kind, tm), EnergyOf(kind, en))
		}
		m.Record(kind, 3)
		ns += Duration(kind, tm)
		e += 3 * EnergyOf(kind, en)
	}
	if m.LatencyNS != ns || m.EnergyPJ != e {
		t.Fatalf("meter (%v ns, %v pJ), summed functions (%v, %v)", m.LatencyNS, m.EnergyPJ, ns, e)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Meter.Record accepted an unknown command kind")
		}
	}()
	m.Record(CommandKind(NumCommandKinds), 1)
}
