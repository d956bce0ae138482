package platforms

import (
	"math"
	"strings"
	"testing"
)

func TestAllPlatformsPresent(t *testing.T) {
	names := map[string]bool{}
	for _, s := range All() {
		names[s.Name] = true
	}
	for _, want := range []string{"CPU", "GPU", "HMC", "Ambit", "D1", "D3", "P-A"} {
		if !names[want] {
			t.Errorf("platform %s missing", want)
		}
	}
	if len(All()) != 7 {
		t.Fatalf("got %d platforms, want 7", len(All()))
	}
}

func TestByName(t *testing.T) {
	s, err := ByName("Ambit")
	if err != nil || s.Name != "Ambit" {
		t.Fatalf("ByName failed: %v", err)
	}
	if _, err := ByName("TPU"); err == nil {
		t.Fatal("unknown platform accepted")
	}
}

func TestByNameCaseInsensitive(t *testing.T) {
	for query, want := range map[string]string{
		"GPU": "GPU", "gpu": "GPU", "ambit": "Ambit",
		"d3": "D3", "p-a": "P-A", "hmc": "HMC",
	} {
		s, err := ByName(query)
		if err != nil {
			t.Fatalf("ByName(%q): %v", query, err)
		}
		if s.Name != want {
			t.Errorf("ByName(%q) = %q, want %q", query, s.Name, want)
		}
	}
}

func TestByNameErrorListsValidNames(t *testing.T) {
	_, err := ByName("TPU")
	if err == nil {
		t.Fatal("unknown platform accepted")
	}
	for _, name := range Names() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("unknown-platform error %q does not list %q", err, name)
		}
	}
}

func TestPaperXNORCycleCounts(t *testing.T) {
	// §I: Ambit imposes 7 memory cycles for X(N)OR; P-A's full staged op is
	// 2 RowClones + 1 compute AAP.
	if Ambit().XNORCycles != 7 {
		t.Fatalf("Ambit XNOR cycles %v, paper says 7", Ambit().XNORCycles)
	}
	if PIMAssembler().XNORCycles != 3 {
		t.Fatalf("P-A XNOR cycles %v, want 3 (2 staging + 1 compute)", PIMAssembler().XNORCycles)
	}
}

func TestThroughputHeadlineRatios(t *testing.T) {
	mean := func(name string, op BulkOp) float64 {
		s, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		for _, n := range Fig3bSizes() {
			sum += s.Throughput(op, n)
		}
		return sum / 3
	}
	paX := mean("P-A", OpXNOR)
	paA := mean("P-A", OpAdd)

	// Paper §I: 8.4x vs CPU averaged over the bulk ops (tolerance ±20%).
	cpuRatio := (paX/mean("CPU", OpXNOR) + paA/mean("CPU", OpAdd)) / 2
	if cpuRatio < 6.7 || cpuRatio > 10.1 {
		t.Errorf("P-A vs CPU ratio %.2f outside 8.4x ±20%%", cpuRatio)
	}
	// Paper §II-B: 2.3x vs Ambit, 1.9x vs D1, 3.7x vs D3 on XNOR.
	for _, c := range []struct {
		name  string
		paper float64
	}{{"Ambit", 2.3}, {"D1", 1.9}, {"D3", 3.7}} {
		r := paX / mean(c.name, OpXNOR)
		if r < c.paper*0.8 || r > c.paper*1.2 {
			t.Errorf("P-A vs %s XNOR ratio %.2f outside %.1fx ±20%%", c.name, r, c.paper)
		}
	}
}

func TestPAOutperformsEverythingOnXNOR(t *testing.T) {
	pa, _ := ByName("P-A")
	paT := pa.Throughput(OpXNOR, 1<<28)
	for _, s := range All() {
		if s.Name == "P-A" {
			continue
		}
		if s.Throughput(OpXNOR, 1<<28) >= paT {
			t.Errorf("%s out-throughputs P-A on XNOR; Fig. 3b shape broken", s.Name)
		}
	}
}

func TestBandwidthPlatformsAreBandwidthLimited(t *testing.T) {
	// Doubling the vector size must leave bandwidth-bound throughput
	// essentially flat (launch overhead amortises).
	for _, name := range []string{"CPU", "GPU", "HMC"} {
		s, _ := ByName(name)
		t1 := s.Throughput(OpXNOR, 1<<27)
		t2 := s.Throughput(OpXNOR, 1<<29)
		if math.Abs(t1-t2)/t2 > 0.05 {
			t.Errorf("%s throughput varies %.1f%% across sizes; should be bandwidth-flat",
				name, 100*math.Abs(t1-t2)/t2)
		}
	}
}

func TestXNORFasterThanAddEverywhereInSitu(t *testing.T) {
	for _, s := range []Spec{Ambit(), DRISA1T1C(), DRISA3T1C(), PIMAssembler()} {
		if s.Throughput(OpXNOR, 1<<28) <= s.Throughput(OpAdd, 1<<28) {
			t.Errorf("%s: bit-serial add should not beat single-pass XNOR", s.Name)
		}
	}
}

func TestOpLatencyMonotonicInSize(t *testing.T) {
	for _, s := range All() {
		for _, op := range []BulkOp{OpXNOR, OpAdd} {
			if s.OpLatencyNS(op, 1<<27) >= s.OpLatencyNS(op, 1<<29) {
				t.Errorf("%s %v latency not increasing with size", s.Name, op)
			}
		}
	}
}

func TestOpLatencyPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	PIMAssembler().OpLatencyNS(OpXNOR, 0)
}

func TestPIMGeometryMatchesThroughputStudy(t *testing.T) {
	g := PIMGeometry()
	if g.ActiveBanks != 8 {
		t.Fatalf("throughput study uses 8 banks, got %d", g.ActiveBanks)
	}
	if g.RowsPerSubarray != 1024 || g.ColsPerSubarray != 256 {
		t.Fatal("sub-array organisation drifted from 1024x256")
	}
}

func TestEnergyScalesOrdering(t *testing.T) {
	// P-A's two-row mechanism must be the cheapest per AAP.
	pa := PIMAssembler()
	for _, s := range []Spec{Ambit(), DRISA1T1C(), DRISA3T1C()} {
		if s.EnergyScale <= pa.EnergyScale {
			t.Errorf("%s energy scale %.2f not above P-A's %.2f", s.Name, s.EnergyScale, pa.EnergyScale)
		}
	}
}

func TestFig3bMatrixComplete(t *testing.T) {
	rows := Fig3b()
	if len(rows) != 14 { // 7 platforms × 2 ops
		t.Fatalf("Fig3b has %d rows, want 14", len(rows))
	}
	for _, r := range rows {
		for i, v := range r.BitsPerS {
			if v <= 0 {
				t.Errorf("%s %v size %d: non-positive throughput", r.Platform, r.Op, i)
			}
		}
	}
}
