package exec

import (
	"strings"
	"testing"

	"pimassembler/internal/dram"
)

func TestStreamViews(t *testing.T) {
	s := NewStream()
	s.Record(Command{Subarray: 0, Kind: dram.CmdAAP2, Stage: StageHashmap, Rows: 2})
	s.Record(Command{Subarray: 0, Kind: dram.CmdAAP2, Stage: StageHashmap, Rows: 2})
	s.Record(Command{Subarray: 3, Kind: dram.CmdWrite, Stage: StageInput, Rows: 1})
	s.Record(Command{Subarray: 7, Kind: dram.CmdDPU, Stage: StageTraverse, Rows: 1})

	if s.n != 4 {
		t.Fatalf("len %d, want 4", s.n)
	}
	ta := tallyOf(s, dram.Timing{}, dram.Energy{})
	if n := touched(ta); n != 3 {
		t.Fatalf("subarrays %d, want 3", n)
	}
	h := ta.Histogram()
	tot := h.Totals
	if tot[dram.CmdAAP2] != 2 || tot[dram.CmdWrite] != 1 || tot[dram.CmdDPU] != 1 {
		t.Fatalf("totals %v", tot)
	}
	if h.Commands != 4 {
		t.Fatalf("histogram commands %d", h.Commands)
	}
	if h.PerStage[StageHashmap][dram.CmdAAP2] != 2 {
		t.Fatalf("per-stage %v", h.PerStage)
	}
	if !strings.Contains(h.String(), "hashmap") {
		t.Fatalf("rendered histogram missing stage row:\n%s", h.String())
	}
	cmds := s.Commands()
	if len(cmds) != 4 || cmds[0].Kind != dram.CmdAAP2 || cmds[3].Subarray != 7 {
		t.Fatalf("commands copy wrong: %v", cmds)
	}
	s.Reset()
	if s.n != 0 {
		t.Fatalf("reset left %d commands", s.n)
	}
}

func TestAttributeMatchesMeter(t *testing.T) {
	tm := dram.DefaultTiming()
	en := dram.DefaultEnergy()
	m := dram.NewMeter(tm, en)
	s := NewStream()
	kinds := []dram.CommandKind{
		dram.CmdAAPCopy, dram.CmdAAP2, dram.CmdAAP3, dram.CmdRead,
		dram.CmdWrite, dram.CmdDPU, dram.CmdActivate, dram.CmdPrecharge,
	}
	stages := []Stage{StageInput, StageHashmap, StageDeBruijn, StageTraverse}
	for i := 0; i < 200; i++ {
		k := kinds[i%len(kinds)]
		m.Record(k, 1)
		s.Record(Command{Subarray: i % 5, Kind: k, Stage: stages[i%len(stages)], Rows: k.SourceRows()})
	}
	ta := NewTally(tm, en)
	s.Each(func(c Command) { addCommand(ta, c) })
	costs := ta.StageCosts()
	if len(costs) != len(stages) {
		t.Fatalf("got %d stage costs, want %d", len(costs), len(stages))
	}
	var ns, pj float64
	var n int64
	for _, c := range costs {
		ns += c.SerialNS
		pj += c.EnergyPJ
		n += c.Commands
	}
	if n != 200 {
		t.Fatalf("attributed %d commands, want 200", n)
	}
	if !near(ns, m.LatencyNS) {
		t.Fatalf("attributed serial %v ns, meter %v ns", ns, m.LatencyNS)
	}
	if !near(pj, m.EnergyPJ) {
		t.Fatalf("attributed energy %v pJ, meter %v pJ", pj, m.EnergyPJ)
	}
	// The run's energy is summed command by command in stream order, as the
	// meter sums it: the two agree bit for bit.
	if ta.EnergyPJ() != m.EnergyPJ {
		t.Fatalf("run energy %v pJ, meter %v pJ", ta.EnergyPJ(), m.EnergyPJ)
	}
}

func TestStageStrings(t *testing.T) {
	if StageHashmap.String() != "hashmap" || StageDeBruijn.String() != "deBruijn" {
		t.Fatalf("stage names wrong: %v %v", StageHashmap, StageDeBruijn)
	}
	if len(Stages()) != int(numStages) {
		t.Fatalf("Stages() returned %d entries", len(Stages()))
	}
	if Stage(200).String() == "" {
		t.Fatal("out-of-range stage should still render")
	}
}

// tallyOf accounts every command of s on a fresh Tally priced with t and e.
func tallyOf(s *Stream, t dram.Timing, e dram.Energy) *Tally {
	ta := NewTally(t, e)
	s.Each(func(c Command) { addCommand(ta, c) })
	return ta
}

// touched returns how many distinct sub-arrays ta's commands touched.
func touched(ta *Tally) int {
	n := 0
	for _, m := range ta.touched {
		if m != 0 {
			n++
		}
	}
	return n
}

// addCommand accounts one command on ta, as sched.Pass.AddSegment accounts
// each command of a segment.
func addCommand(ta *Tally, c Command) {
	sums, total, dur, pj := ta.Open(c.Subarray, c.Stage)
	sums.Counts[c.Kind]++
	sums.SerialNS += dur[c.Kind]
	sums.EnergyPJ += pj[c.Kind]
	*total += pj[c.Kind]
}

func near(a, b float64) bool {
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

func TestCanonicalPreservesSubsequencesDeterministically(t *testing.T) {
	// Record the same per-sub-array subsequences under two different
	// interleavings; Canonical must return the identical slice for both.
	mk := func(order []int) *Stream {
		s := NewStream()
		next := map[int]int{}
		for _, sub := range order {
			s.Record(Command{Subarray: sub, Kind: dram.CmdRead, Stage: Stage(1 + next[sub]%4), Rows: 1})
			next[sub]++
		}
		return s
	}
	a := mk([]int{2, 0, 0, 1, 2, 1, 0, 2})
	b := mk([]int{0, 1, 2, 0, 2, 1, 0, 2}) // same multiset per sub-array order
	ca, cb := a.Canonical(), b.Canonical()
	if len(ca) != len(cb) || len(ca) != 8 {
		t.Fatalf("lengths %d vs %d", len(ca), len(cb))
	}
	for i := range ca {
		if ca[i] != cb[i] {
			t.Fatalf("slot %d: %v vs %v", i, ca[i], cb[i])
		}
	}
	// Per-sub-array subsequence must be preserved exactly.
	var got []Stage
	for _, c := range ca {
		if c.Subarray == 0 {
			got = append(got, c.Stage)
		}
	}
	want := []Stage{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sub 0 subsequence %v, want %v", got, want)
		}
	}
	// Round-robin: the first len(ids) commands cover each sub-array once.
	seen := map[int]bool{}
	for _, c := range ca[:3] {
		seen[c.Subarray] = true
	}
	if len(seen) != 3 {
		t.Fatalf("first round covers %d sub-arrays, want 3", len(seen))
	}
}
