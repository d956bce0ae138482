package assembly

import (
	"math"
	"reflect"
	"testing"

	"pimassembler/internal/core"
	"pimassembler/internal/dram"
	"pimassembler/internal/exec"
	"pimassembler/internal/genome"
	"pimassembler/internal/sched"
	"pimassembler/internal/stats"
)

// pimRun executes AssemblePIM on a fresh default platform with a fixed read
// set and returns the platform and result.
func pimRun(t *testing.T, parallel bool) (*core.Platform, *PIMResult) {
	t.Helper()
	rng := stats.NewRNG(91)
	reads := genome.NewReadSampler(genome.GenerateGenome(1200, rng), 90, 0, rng).Sample(120)
	p := core.NewDefaultPlatform()
	res, err := AssemblePIM(p, genome.NewSliceSource(reads), Options{K: 15, ParallelStage1: parallel}, 16)
	if err != nil {
		t.Fatal(err)
	}
	return p, res
}

// TestStreamMatchesMeter is the single-source-of-truth cross-check: for a
// full AssemblePIM run, the recorded command stream's per-kind totals must
// exactly equal the serial Meter's counts, and pricing the stream with the
// platform's models must reproduce the Meter's latency and energy totals.
func TestStreamMatchesMeter(t *testing.T) {
	p, _ := pimRun(t, false)
	m := p.Meter()
	streamTotals := p.Stream().Totals()

	if got, want := int64(p.Stream().Len()), m.TotalCommands(); got != want {
		t.Fatalf("stream has %d commands, meter %d", got, want)
	}
	for k, n := range m.Counts {
		if kind := dram.CommandKind(k); streamTotals[kind] != n {
			t.Fatalf("kind %v: stream %d, meter %d", kind, streamTotals[kind], n)
		}
	}

	// The scheduled stream's serial total is the Meter's latency.
	est := sched.ScheduleStream(p.Stream().Commands(), p.SchedConfig())
	if !nearNS(est.SerialNS, m.LatencyNS) {
		t.Fatalf("scheduled serial %v ns, meter %v ns", est.SerialNS, m.LatencyNS)
	}
	if est.MakespanNS > est.SerialNS+1e-6 {
		t.Fatalf("makespan %v exceeds serial %v", est.MakespanNS, est.SerialNS)
	}

	// Per-stage attribution sums back to the Meter totals.
	var ns, pj float64
	ta := exec.NewTally(dram.DefaultTiming(), dram.DefaultEnergy())
	p.Stream().EachSegment(ta.AddSegment)
	for _, c := range ta.StageCosts() {
		ns += c.SerialNS
		pj += c.EnergyPJ
	}
	if !nearNS(ns, m.LatencyNS) {
		t.Fatalf("attributed %v ns, meter %v ns", ns, m.LatencyNS)
	}
	if !nearNS(pj, m.EnergyPJ) {
		t.Fatalf("attributed %v pJ, meter %v pJ", pj, m.EnergyPJ)
	}

	// Every pipeline phase left commands in the stream.
	h := p.Stream().Histogram()
	for _, st := range []string{"input", "hashmap", "deBruijn", "traverse"} {
		found := false
		for stage, kinds := range h.PerStage {
			if stage.String() == st && len(kinds) > 0 {
				found = true
			}
		}
		if !found {
			t.Fatalf("stage %s missing from histogram %v", st, h.PerStage)
		}
	}
}

// TestParallelStage1BitIdentical verifies the sharded Hashmap procedure is
// indistinguishable from the serial one: same contigs, same Euler walk, same
// graph, same per-kind command totals, and bit-identical DRAM rows across
// the whole hash-table region.
func TestParallelStage1BitIdentical(t *testing.T) {
	ps, rs := pimRun(t, false)
	pp, rp := pimRun(t, true)

	// Functional outputs.
	if len(rs.Contigs) != len(rp.Contigs) {
		t.Fatalf("contig counts differ: %d vs %d", len(rs.Contigs), len(rp.Contigs))
	}
	for i := range rs.Contigs {
		if !rs.Contigs[i].Seq.Equal(rp.Contigs[i].Seq) {
			t.Fatalf("contig %d differs", i)
		}
	}
	if len(rs.EulerWalk) != len(rp.EulerWalk) {
		t.Fatalf("Euler walks differ: %d vs %d nodes", len(rs.EulerWalk), len(rp.EulerWalk))
	}
	if rs.Graph.NumNodes() != rp.Graph.NumNodes() || rs.Graph.NumEdges() != rp.Graph.NumEdges() {
		t.Fatal("graphs differ")
	}

	// Command accounting: per-kind totals are exactly equal (the parallel
	// run records the same commands, its stage 1 sub-array by sub-array).
	if cs, cp := ps.Meter().Counts, pp.Meter().Counts; cs != cp {
		t.Fatalf("per-kind counts: serial %v, parallel %v", cs, cp)
	}
	if ps.Stream().Len() != pp.Stream().Len() {
		t.Fatalf("stream lengths differ: %d vs %d", ps.Stream().Len(), pp.Stream().Len())
	}

	// Raw DRAM state: every row of the hash-table region matches bit for
	// bit (Peek bypasses the meter).
	if rs.BankSubarrays != rp.BankSubarrays || rs.HashSubarrays != rp.HashSubarrays {
		t.Fatal("layouts differ")
	}
	rows := ps.Geometry().RowsPerSubarray
	for sub := rs.BankSubarrays; sub < rs.BankSubarrays+rs.HashSubarrays; sub++ {
		a, b := ps.Subarray(sub), pp.Subarray(sub)
		for r := 0; r < rows; r++ {
			if !a.Peek(r).Equal(b.Peek(r)) {
				t.Fatalf("sub-array %d row %d differs between serial and parallel", sub, r)
			}
		}
	}
}

// TestParallelStage1Deterministic runs the parallel path twice and demands
// identical functional output and accounting both times — down to the
// schedule of the recorded stream and the rounding of the energy sum, which
// the ordered region merge makes independent of how the workers interleave.
func TestParallelStage1Deterministic(t *testing.T) {
	p1, r1 := pimRun(t, true)
	p2, r2 := pimRun(t, true)
	if len(r1.Contigs) != len(r2.Contigs) {
		t.Fatalf("contig counts differ across runs: %d vs %d", len(r1.Contigs), len(r2.Contigs))
	}
	for i := range r1.Contigs {
		if !r1.Contigs[i].Seq.Equal(r2.Contigs[i].Seq) {
			t.Fatalf("contig %d differs across runs", i)
		}
	}
	if c1, c2 := p1.Meter().Counts, p2.Meter().Counts; c1 != c2 {
		t.Fatalf("per-kind counts %v vs %v across runs", c1, c2)
	}
	if e1, e2 := p1.Meter().EnergyPJ, p2.Meter().EnergyPJ; math.Float64bits(e1) != math.Float64bits(e2) {
		t.Fatalf("energy sums differ in rounding across runs: %v vs %v pJ", e1, e2)
	}
	if s1, s2 := p1.Summarize(), p2.Summarize(); !reflect.DeepEqual(s1, s2) {
		t.Fatalf("summaries differ across runs:\n%+v\n%+v", s1, s2)
	}
}

// TestCommandStreamReproducible demands more than equal totals of two runs
// over the same reads: the recorded streams are equal command for command,
// so block → sub-array placement and the PopCount issue order of the graph
// stage are functions of the graph, not of a map's iteration order.
func TestCommandStreamReproducible(t *testing.T) {
	for _, parallel := range []bool{false, true} {
		p1, _ := pimRun(t, parallel)
		p2, _ := pimRun(t, parallel)
		c1, c2 := p1.Stream().Commands(), p2.Stream().Commands()
		if len(c1) != len(c2) {
			t.Fatalf("parallel=%v: %d commands, then %d", parallel, len(c1), len(c2))
		}
		for i := range c1 {
			if c1[i] != c2[i] {
				t.Fatalf("parallel=%v: command %d of %d is %v in one run and %v in the next", parallel, i, len(c1), c1[i], c2[i])
			}
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
