package eval

import (
	"bytes"
	"strings"
	"testing"

	"pimassembler/internal/circuit"
	"pimassembler/internal/perfmodel"
)

func TestFig3aWaveforms(t *testing.T) {
	waves := Fig3a()
	if len(waves) != 4 {
		t.Fatalf("expected 4 patterns, got %d", len(waves))
	}
	// Matching inputs charge the cell, differing inputs discharge it.
	for key, want := range map[string]bool{
		"DiDj=00": true, "DiDj=11": true, "DiDj=10": false, "DiDj=01": false,
	} {
		final := circuit.FinalCellVoltage(waves[key])
		if want && final < 0.9*circuit.Vdd {
			t.Errorf("%s: final %.2f, want near Vdd", key, final)
		}
		if !want && final > 0.1*circuit.Vdd {
			t.Errorf("%s: final %.2f, want near GND", key, final)
		}
	}
}

func TestTableIDeterministic(t *testing.T) {
	a := TableI()
	b := TableI()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Table I not reproducible")
		}
	}
}

func TestFig9CoversAllKsAndPlatforms(t *testing.T) {
	fig9 := Fig9()
	if len(fig9) != 4 {
		t.Fatalf("expected 4 k values, got %d", len(fig9))
	}
	for k, costs := range fig9 {
		if len(costs) != 5 {
			t.Fatalf("k=%d: %d platforms, want 5", k, len(costs))
		}
		for _, c := range costs {
			if c.TotalS() <= 0 || c.PowerW <= 0 {
				t.Fatalf("k=%d %s: degenerate cost %+v", k, c.Platform, c)
			}
		}
	}
}

func TestFig10OptimumAtTwo(t *testing.T) {
	for _, k := range []int{16, 32} {
		if pts := perfmodel.PdTradeoff(PaperCounts(k), Fig10Pds()); len(pts) != 4 {
			t.Fatalf("k=%d: %d Pd points", k, len(pts))
		}
	}
}

func TestFig11CoversBothKs(t *testing.T) {
	us := Fig11()
	if len(us) != 10 { // 5 platforms × 2 ks
		t.Fatalf("got %d utilization points, want 10", len(us))
	}
}

func TestRenderersProduceOutput(t *testing.T) {
	renderers := map[string]func(w *bytes.Buffer){
		"fig3a":  func(w *bytes.Buffer) { RenderFig3a(w) },
		"fig3b":  func(w *bytes.Buffer) { RenderFig3b(w) },
		"table1": func(w *bytes.Buffer) { RenderTableI(w) },
		"area":   func(w *bytes.Buffer) { RenderArea(w) },
		"fig9":   func(w *bytes.Buffer) { RenderFig9(w) },
		"fig10":  func(w *bytes.Buffer) { RenderFig10(w) },
		"fig11":  func(w *bytes.Buffer) { RenderFig11(w) },
	}
	for name, f := range renderers {
		var buf bytes.Buffer
		f(&buf)
		if buf.Len() < 50 {
			t.Errorf("%s renderer produced %d bytes", name, buf.Len())
		}
	}
}

func TestRenderAllContainsEveryArtifact(t *testing.T) {
	if testing.Short() {
		t.Skip("full harness render")
	}
	var buf bytes.Buffer
	RenderAll(&buf)
	out := buf.String()
	for _, marker := range []string{
		"Fig. 3a", "Fig. 3b", "Table I", "Area overhead",
		"Fig. 9a", "Fig. 9b", "Fig. 10", "Fig. 11",
		"Cross-engine comparison",
	} {
		if !strings.Contains(out, marker) {
			t.Errorf("RenderAll missing %q", marker)
		}
	}
}

func TestHeadlineRatioStringsMentionPaperValues(t *testing.T) {
	for _, line := range ThroughputRatios() {
		if !strings.Contains(line, "paper:") {
			t.Errorf("ratio line lacks paper reference: %q", line)
		}
	}
	for _, line := range AssemblyRatios() {
		if !strings.Contains(line, "paper:") {
			t.Errorf("ratio line lacks paper reference: %q", line)
		}
	}
}

func TestRenderFig2bTruthTable(t *testing.T) {
	var buf bytes.Buffer
	RenderFig2b(&buf)
	out := buf.String()
	for _, want := range []string{"low-Vs=0.30V", "high-Vs=0.90V", "NOR", "NAND", "XOR"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig2b output missing %q", want)
		}
	}
}

func TestFaultStudyShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full fault study")
	}
	corners := FaultStudy()
	if len(corners) != 4 {
		t.Fatalf("got %d corners", len(corners))
	}
	// The safe corner is exact; degradation is monotone in injected flips.
	if corners[0].FlippedBits != 0 || corners[0].Contigs != 1 {
		t.Fatalf("±5%% corner not clean: %+v", corners[0])
	}
	for i := 1; i < len(corners); i++ {
		if corners[i].FlippedBits <= corners[i-1].FlippedBits {
			t.Errorf("flips not increasing at corner %d", i)
		}
	}
	// Fragmentation grows once errors appear (unless the run overflowed).
	for _, c := range corners[1:] {
		if !c.Failed && c.Contigs <= corners[0].Contigs {
			t.Errorf("±%.0f%%: no fragmentation despite %d flips", c.Variation*100, c.FlippedBits)
		}
	}
}

func TestWriteCSVAllExperiments(t *testing.T) {
	for _, name := range CSVExperiments() {
		var buf bytes.Buffer
		if err := WriteCSV(name, &buf); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		if len(lines) < 2 {
			t.Errorf("%s: CSV has %d lines", name, len(lines))
		}
		// Every row has the header's column count.
		cols := strings.Count(lines[0], ",")
		for i, l := range lines {
			if strings.Count(l, ",") != cols {
				t.Errorf("%s line %d: ragged CSV", name, i)
			}
		}
	}
	if err := WriteCSV("nope", &bytes.Buffer{}); err == nil {
		t.Fatal("unknown CSV experiment accepted")
	}
}

func TestKSweepMonotoneTail(t *testing.T) {
	// Past the keyspace crossover (k >= 16), the hashmap speedup must grow
	// monotonically with k — the Fig. 9 trend generalised.
	prev := 0.0
	for _, k := range KSweepKs() {
		if k < 16 {
			continue
		}
		gpu, pa := KSweepPoint(k)
		s := gpu.HashmapS / pa.HashmapS
		if s <= prev {
			t.Fatalf("hashmap speedup not increasing at k=%d (%.2f <= %.2f)", k, s, prev)
		}
		prev = s
	}
}

func TestRenderSensitivityOutput(t *testing.T) {
	var buf bytes.Buffer
	RenderSensitivity(&buf)
	out := buf.String()
	if !strings.Contains(out, "P-A wins") || !strings.Contains(out, "true") {
		t.Fatalf("sensitivity output missing verdicts:\n%s", out)
	}
	if strings.Contains(out, "false") {
		t.Fatal("an ordering flipped within the audited calibration range")
	}
}
