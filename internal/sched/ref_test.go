package sched

import (
	"container/heap"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"pimassembler/internal/dram"
	"pimassembler/internal/exec"
	"pimassembler/internal/stats"
)

// This file keeps the original batch scheduler — map-keyed state,
// container/heap, and a sorted sweep over all start/end events for the peak
// — as the oracle the incremental scheduler is checked against. It is the
// definition of every Result field; the production code must equal it with
// ==, not approximately.

// endHeap is a min-heap of completion times.
type endHeap []float64

func (h endHeap) Len() int            { return len(h) }
func (h endHeap) Less(i, j int) bool  { return h[i] < h[j] }
func (h endHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *endHeap) Push(x interface{}) { *h = append(*h, x.(float64)) }
func (h *endHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

func refSchedule(cmds []exec.Command, cfg Config) Result {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	var res Result
	res.Commands = len(cmds)
	if len(cmds) == 0 {
		return res
	}

	subFree := make(map[int]float64)
	bankActive := make(map[int]*endHeap)
	var nextIssue float64
	var makespan float64

	// Global active-interval tracking for peak parallelism.
	type edge struct {
		t     float64
		delta int
	}
	var edges []edge

	for _, cmd := range cmds {
		if cmd.Subarray < 0 {
			panic(fmt.Sprintf("sched: negative sub-array id %d", cmd.Subarray))
		}
		dur := dram.Duration(cmd.Kind, cfg.Timing)
		res.SerialNS += dur
		bank := cmd.Subarray / cfg.SubarraysPerBank

		start := nextIssue
		if f := subFree[cmd.Subarray]; f > start {
			start = f
		}
		h := bankActive[bank]
		if h == nil {
			h = &endHeap{}
			bankActive[bank] = h
		}
		// Drop completed intervals, then wait for a slot if saturated.
		for h.Len() > 0 && (*h)[0] <= start {
			heap.Pop(h)
		}
		if h.Len() >= cfg.MaxActivePerBank {
			earliest := (*h)[0]
			if earliest > start {
				start = earliest
			}
			for h.Len() > 0 && (*h)[0] <= start {
				heap.Pop(h)
			}
		}

		end := start + dur
		subFree[cmd.Subarray] = end
		heap.Push(h, end)
		nextIssue = start + cfg.IssueIntervalNS
		if end > makespan {
			makespan = end
		}
		edges = append(edges, edge{start, 1}, edge{end, -1})
	}

	res.MakespanNS = makespan
	if makespan > 0 {
		res.Speedup = res.SerialNS / makespan
		res.BusBoundPct = 100 * float64(len(cmds)) * cfg.IssueIntervalNS / makespan
		if res.BusBoundPct > 100 {
			res.BusBoundPct = 100
		}
	}

	// Peak parallelism via sweep (ends sort before starts at equal times).
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].t != edges[j].t {
			return edges[i].t < edges[j].t
		}
		return edges[i].delta < edges[j].delta
	})
	cur, peak := 0, 0
	for _, e := range edges {
		cur += e.delta
		if cur > peak {
			peak = cur
		}
	}
	res.PeakParallel = peak
	return res
}

var allKinds = []dram.CommandKind{
	dram.CmdActivate, dram.CmdPrecharge, dram.CmdRead, dram.CmdWrite,
	dram.CmdAAPCopy, dram.CmdAAP2, dram.CmdAAP3, dram.CmdDPU,
}

// randomCase draws a configuration and a command stream from rng: few or
// many sub-arrays, one or several banks, tight or slack activation budgets,
// a bus faster or slower than the commands, and — at n == 0 and 1 — the
// empty and single-command streams.
func randomCase(rng *stats.RNG, n int) ([]exec.Command, Config) {
	c := cfg()
	c.SubarraysPerBank = 1 + rng.Intn(16)
	c.MaxActivePerBank = 1 + rng.Intn(6)
	if rng.Intn(4) == 0 {
		c.IssueIntervalNS = 0.25 + 60*rng.Float64()
	}
	spread := 1 + rng.Intn(96)
	stages := exec.Stages()
	cmds := make([]exec.Command, n)
	for i := range cmds {
		cmds[i] = exec.Command{
			Subarray: rng.Intn(spread),
			Kind:     allKinds[rng.Intn(len(allKinds))],
			Stage:    stages[rng.Intn(len(stages))],
		}
	}
	return cmds, c
}

// segments cuts cmds into the segments a stream would hold: maximal runs of
// one sub-array under one stage, each cut further every maxLen commands (a
// stream cuts where a kind chunk ends).
func segments(cmds []exec.Command, maxLen int) []exec.Segment {
	var out []exec.Segment
	for _, c := range cmds {
		if n := len(out); n > 0 && out[n-1].Subarray == c.Subarray && out[n-1].Stage == c.Stage && len(out[n-1].Kinds) < maxLen {
			out[n-1].Kinds = append(out[n-1].Kinds, uint8(c.Kind))
			continue
		}
		out = append(out, exec.Segment{Subarray: c.Subarray, Stage: c.Stage, Kinds: []uint8{uint8(c.Kind)}})
	}
	return out
}

// checkAgainstReference runs one stream through every production entry
// point — ScheduleStream, ScheduleStages, and a Pass fed the
// stream's segments three ways: one command at a time, cut every seven
// commands, and whole — and demands the oracle's Result from each, and from
// the Pass's tally what an exec.Tally makes of the commands one by one.
func checkAgainstReference(t *testing.T, cmds []exec.Command, c Config) {
	t.Helper()
	byStage := make(map[exec.Stage][]exec.Command)
	en := dram.DefaultEnergy()
	wantTally := exec.NewTally(c.Timing, en)
	for _, cmd := range cmds {
		byStage[cmd.Stage] = append(byStage[cmd.Stage], cmd)
		sums, total, dur, pj := wantTally.Open(cmd.Subarray, cmd.Stage)
		sums.Counts[cmd.Kind]++
		sums.SerialNS += dur[cmd.Kind]
		sums.EnergyPJ += pj[cmd.Kind]
		*total += pj[cmd.Kind]
	}
	want := refSchedule(cmds, c)
	if got := ScheduleStream(cmds, c); got != want {
		t.Fatalf("ScheduleStream %+v, reference %+v (%d cmds, %+v)", got, want, len(cmds), c)
	}
	stages := ScheduleStages(cmds, c)
	if len(stages) != len(byStage) {
		t.Fatalf("ScheduleStages: %d stages, want %d", len(stages), len(byStage))
	}
	for st, sub := range byStage {
		if want := refSchedule(sub, c); stages[st] != want {
			t.Fatalf("stage %v: ScheduleStages %+v, reference %+v", st, stages[st], want)
		}
	}
	for _, maxLen := range []int{1, 7, len(cmds)} {
		pass, ta := NewPass(c), exec.NewTally(c.Timing, en)
		for _, seg := range segments(cmds, maxLen) {
			pass.AddSegment(seg, ta)
		}
		if got := pass.Whole(); got != want {
			t.Fatalf("segments of ≤ %d: Pass.Whole %+v, reference %+v", maxLen, got, want)
		}
		passStages := pass.Stages()
		if len(passStages) != len(byStage) {
			t.Fatalf("segments of ≤ %d: Pass has %d stages, want %d", maxLen, len(passStages), len(byStage))
		}
		for st, sub := range byStage {
			if want := refSchedule(sub, c); passStages[st] != want {
				t.Fatalf("segments of ≤ %d, stage %v: Pass %+v, reference %+v", maxLen, st, passStages[st], want)
			}
		}
		if !reflect.DeepEqual(ta.Histogram(), wantTally.Histogram()) || !reflect.DeepEqual(ta.StageCosts(), wantTally.StageCosts()) || ta.EnergyPJ() != wantTally.EnergyPJ() {
			t.Fatalf("segments of ≤ %d: the Pass's tally differs from a tally of the commands one by one", maxLen)
		}
	}
}

// TestScheduleMatchesReference is the differential pin of the incremental
// scheduler, online peak tracking included, against the sorted-sweep oracle.
func TestScheduleMatchesReference(t *testing.T) {
	rng := stats.NewRNG(0x5C4ED)
	for i := 0; i < 300; i++ {
		n := i // 0 and 1 first: the empty and single-command streams
		if i >= 2 {
			n = 2 + rng.Intn(3000)
		}
		cmds, c := randomCase(rng, n)
		checkAgainstReference(t, cmds, c)
	}
}

// runSpec is one run of a shape: min to max commands (inclusive) to one
// sub-array under one stage, of a fixed kind or, kind < 0, random ones.
type runSpec struct {
	sub      int
	stage    exec.Stage
	min, max int
	kind     dram.CommandKind
}

// cycleRuns returns a shape that issues runs in turn, over and over, drawing
// each run's length anew.
func cycleRuns(rng *stats.RNG, runs ...runSpec) func(int) exec.Command {
	j, left := -1, 0
	return func(int) exec.Command {
		for left == 0 {
			j = (j + 1) % len(runs)
			left = runs[j].min + rng.Intn(runs[j].max-runs[j].min+1)
		}
		left--
		r := runs[j]
		if r.kind < 0 {
			r.kind = allKinds[rng.Intn(len(allKinds))]
		}
		return exec.Command{Subarray: r.sub, Kind: r.kind, Stage: r.stage}
	}
}

// TestChainShapesMatchReference pins the shapes the scheduler's chain mode
// and the Pass's fused segment loop tell apart, which the random streams
// above only brush: one long chain to a single sub-array (every command but
// the first skips the heaps), two sub-arrays alternating (no command does,
// and every segment is one command), and runs of random length hopping
// between a few sub-arrays (chains start, end and hand their completion time
// back to the heaps). Then the segment shapes: a chain broken by short runs
// to another sub-array, so that each segment opens in the middle of the
// other's chain; a segment opening with its bank at MaxActivePerBank (three
// one-command segments to the bank's other sub-arrays before it, which fill
// the three-slot controller's bank and queue on the one-slot one's); a
// sub-array returning to a stage whose scheduler is still chained on it
// while the whole-run scheduler is chained elsewhere, and the reverse, a
// stage change on one sub-array; and one-command segments on a single
// sub-array whose stage flips every command. Each runs on the default
// controller, on a bus-bound one (every command completes before the next
// may issue), on one whose banks have a single activation slot, so that the
// command ending a chain waits on the completion time the chain handed back,
// and on one with three.
func TestChainShapesMatchReference(t *testing.T) {
	const n = 10_000
	rng := stats.NewRNG(0xC4A1)
	random := dram.CommandKind(-1)
	hm, tr := exec.StageHashmap, exec.StageTraverse
	run, left := 0, 0
	bySub := func(sub int) exec.Command {
		return exec.Command{Subarray: sub, Kind: allKinds[rng.Intn(len(allKinds))], Stage: exec.Stage(1 + sub%2)}
	}
	shapes := []struct {
		name string
		cmd  func(i int) exec.Command
	}{
		{"chain", func(int) exec.Command { return bySub(5) }},
		{"alternating", func(i int) exec.Command { return bySub(5 + i%2) }},
		{"runs", func(int) exec.Command {
			if left == 0 {
				run, left = rng.Intn(4), 1+rng.Intn(40)
			}
			left--
			return bySub(run)
		}},
		{"interrupted", cycleRuns(rng, runSpec{5, hm, 10, 70, random}, runSpec{6, hm, 1, 3, random})},
		{"bank-full", cycleRuns(rng,
			runSpec{0, hm, 1, 1, dram.CmdAAP3}, runSpec{1, hm, 1, 1, dram.CmdAAP3}, runSpec{2, hm, 1, 1, dram.CmdAAP3},
			runSpec{3, hm, 1, 40, random})},
		{"stage-chained", cycleRuns(rng, runSpec{5, hm, 1, 40, random}, runSpec{6, tr, 1, 3, random})},
		{"whole-chained", cycleRuns(rng, runSpec{5, hm, 1, 40, random}, runSpec{5, tr, 1, 40, random}, runSpec{6, tr, 1, 3, random})},
		{"stage-flips", cycleRuns(rng, runSpec{5, exec.StageInput, 1, 1, random}, runSpec{5, hm, 1, 1, random})},
	}
	busBound, oneSlot, threeSlot := cfg(), cfg(), cfg()
	busBound.IssueIntervalNS = 2 * busBound.Timing.AAP()
	oneSlot.SubarraysPerBank, oneSlot.MaxActivePerBank = 4, 1
	threeSlot.SubarraysPerBank, threeSlot.MaxActivePerBank = 4, 3
	for _, shape := range shapes {
		cmds := make([]exec.Command, n)
		for i := range cmds {
			cmds[i] = shape.cmd(i)
		}
		t.Run(shape.name, func(t *testing.T) { checkAgainstReference(t, cmds, cfg()) })
		t.Run(shape.name+"/bus-bound", func(t *testing.T) { checkAgainstReference(t, cmds, busBound) })
		t.Run(shape.name+"/one-slot", func(t *testing.T) { checkAgainstReference(t, cmds, oneSlot) })
		t.Run(shape.name+"/three-slot", func(t *testing.T) { checkAgainstReference(t, cmds, threeSlot) })
	}
}

// FuzzSchedule drives the same comparison — the segment entry point
// included — from fuzzer-chosen seeds and sizes.
func FuzzSchedule(f *testing.F) {
	f.Add(uint64(0), uint16(0))
	f.Add(uint64(1), uint16(1))
	f.Add(uint64(0xA5), uint16(700))
	f.Fuzz(func(t *testing.T, seed uint64, n uint16) {
		cmds, c := randomCase(stats.NewRNG(seed), int(n)%4096)
		checkAgainstReference(t, cmds, c)
	})
}
