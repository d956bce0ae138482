package assembly

import (
	"math"
	"testing"

	"pimassembler/internal/core"
	"pimassembler/internal/dram"
	"pimassembler/internal/exec"
	"pimassembler/internal/genome"
	"pimassembler/internal/stats"
)

// pimRun executes AssemblePIM on a fresh default platform with a fixed read
// set and returns the platform and result.
func pimRun(t *testing.T) (*core.Platform, *PIMResult) {
	t.Helper()
	rng := stats.NewRNG(91)
	reads := genome.NewReadSampler(genome.GenerateGenome(1200, rng), 90, 0, rng).Sample(120)
	p := core.NewDefaultPlatform()
	res, err := AssemblePIM(p, genome.NewSliceSource(reads), Options{K: 15}, 16)
	if err != nil {
		t.Fatal(err)
	}
	return p, res
}

// TestStreamMatchesMeter is the single-source-of-truth cross-check for a full
// AssemblePIM run: the Summary's serial totals — the command count, the
// per-kind counts, the serial time and the energy — are those of a
// command-by-command walk of the recorded stream, bit for bit, the way the
// serial meter the stream replaced summed them; the attribution sums back to
// them; and every pipeline phase left commands in the stream.
func TestStreamMatchesMeter(t *testing.T) {
	p, _ := pimRun(t)
	sum := p.Summarize()

	tm, en := dram.DefaultTiming(), dram.DefaultEnergy()
	var counts [dram.NumCommandKinds]int64
	var n int64
	var latency, energy float64
	p.Stream().Each(func(c exec.Command) {
		n++
		counts[c.Kind]++
		latency += dram.Duration(c.Kind, tm)
		energy += dram.EnergyOf(c.Kind, en)
	})
	if sum.Commands != n {
		t.Fatalf("Summary has %d commands, the stream %d", sum.Commands, n)
	}
	for k, c := range counts {
		if kind := dram.CommandKind(k); sum.Histogram.Totals[kind] != c {
			t.Fatalf("kind %v: Summary %d, stream %d", kind, sum.Histogram.Totals[kind], c)
		}
	}
	if math.Float64bits(sum.SerialLatencyNS) != math.Float64bits(latency) {
		t.Fatalf("Summary serial time %v ns, stream walk %v ns", sum.SerialLatencyNS, latency)
	}
	if math.Float64bits(sum.EnergyPJ) != math.Float64bits(energy) {
		t.Fatalf("Summary energy %v pJ, stream walk %v pJ", sum.EnergyPJ, energy)
	}
	if sum.Makespan.MakespanNS > sum.SerialLatencyNS+1e-6 {
		t.Fatalf("makespan %v exceeds serial %v", sum.Makespan.MakespanNS, sum.SerialLatencyNS)
	}

	// Per-stage attribution sums back to the run's totals.
	var ns, pj float64
	for _, c := range sum.StageCosts {
		ns += c.SerialNS
		pj += c.EnergyPJ
	}
	if !nearNS(ns, latency) {
		t.Fatalf("attributed %v ns, stream walk %v ns", ns, latency)
	}
	if !nearNS(pj, energy) {
		t.Fatalf("attributed %v pJ, stream walk %v pJ", pj, energy)
	}

	// Every pipeline phase left commands in the stream.
	for _, st := range []exec.Stage{exec.StageInput, exec.StageHashmap, exec.StageDeBruijn, exec.StageTraverse} {
		if len(sum.Histogram.PerStage[st]) == 0 {
			t.Fatalf("stage %v missing from histogram %v", st, sum.Histogram.PerStage)
		}
	}
}

// TestCommandStreamReproducible demands more than equal totals of two runs
// over the same reads: the recorded streams are equal command for command,
// so block → sub-array placement and the PopCount issue order of the graph
// stage are functions of the graph, not of a map's iteration order.
func TestCommandStreamReproducible(t *testing.T) {
	p1, _ := pimRun(t)
	p2, _ := pimRun(t)
	c1, c2 := p1.Stream().Commands(), p2.Stream().Commands()
	if len(c1) != len(c2) {
		t.Fatalf("%d commands, then %d", len(c1), len(c2))
	}
	for i := range c1 {
		if c1[i] != c2[i] {
			t.Fatalf("command %d of %d is %v in one run and %v in the next", i, len(c1), c1[i], c2[i])
		}
	}
}

func nearNS(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	scale := b
	if scale < 0 {
		scale = -scale
	}
	if scale < 1 {
		scale = 1
	}
	return d/scale < 1e-9
}
