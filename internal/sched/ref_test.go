package sched

import (
	"container/heap"
	"fmt"
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

func refSchedule(cmds []Command, cfg Config) Result {
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

// checkAgainstReference runs one stream through every production entry
// point — Schedule, ScheduleStream, ScheduleStages, and a Pass — and
// demands the oracle's Result from each.
func checkAgainstReference(t *testing.T, cmds []exec.Command, c Config) {
	t.Helper()
	plain := make([]Command, len(cmds))
	byStage := make(map[exec.Stage][]Command)
	for i, cmd := range cmds {
		plain[i] = Command{Subarray: cmd.Subarray, Kind: cmd.Kind}
		byStage[cmd.Stage] = append(byStage[cmd.Stage], plain[i])
	}
	want := refSchedule(plain, c)
	if got := Schedule(plain, c); got != want {
		t.Fatalf("Schedule %+v, reference %+v (%d cmds, %+v)", got, want, len(cmds), c)
	}
	if got := ScheduleStream(cmds, c); got != want {
		t.Fatalf("ScheduleStream %+v, reference %+v", got, want)
	}
	pass := NewPass(c)
	for _, cmd := range cmds {
		pass.Add(cmd)
	}
	if got := pass.Whole(); got != want {
		t.Fatalf("Pass.Whole %+v, reference %+v", got, want)
	}
	stages, passStages := ScheduleStages(cmds, c), pass.Stages()
	if len(stages) != len(byStage) || len(passStages) != len(byStage) {
		t.Fatalf("got %d / %d stages, want %d", len(stages), len(passStages), len(byStage))
	}
	for st, sub := range byStage {
		want := refSchedule(sub, c)
		if stages[st] != want || passStages[st] != want {
			t.Fatalf("stage %v: ScheduleStages %+v, Pass %+v, reference %+v", st, stages[st], passStages[st], want)
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

// TestChainShapesMatchReference pins the shapes the scheduler's chain mode
// tells apart, which the random streams above only brush: one long chain to
// a single sub-array (every command but the first skips the heaps), two
// sub-arrays alternating (no command does), and runs of random length
// hopping between a few sub-arrays (chains start, end and hand their
// completion time back to the heaps) — each on the default controller, on a
// bus-bound one (every command completes before the next may issue), and on
// one whose banks have a single activation slot, so that the command ending a
// chain waits on the completion time the chain handed back.
func TestChainShapesMatchReference(t *testing.T) {
	const n = 10_000
	rng := stats.NewRNG(0xC4A1)
	run, left := 0, 0
	shapes := []struct {
		name string
		sub  func(i int) int
	}{
		{"chain", func(int) int { return 5 }},
		{"alternating", func(i int) int { return 5 + i%2 }},
		{"runs", func(int) int {
			if left == 0 {
				run, left = rng.Intn(4), 1+rng.Intn(40)
			}
			left--
			return run
		}},
	}
	busBound, oneSlot := cfg(), cfg()
	busBound.IssueIntervalNS = 2 * busBound.Timing.AAP()
	oneSlot.SubarraysPerBank, oneSlot.MaxActivePerBank = 4, 1
	for _, shape := range shapes {
		cmds := make([]exec.Command, n)
		for i := range cmds {
			sub := shape.sub(i)
			cmds[i] = exec.Command{Subarray: sub, Kind: allKinds[rng.Intn(len(allKinds))], Stage: exec.Stage(1 + sub%2)}
		}
		t.Run(shape.name, func(t *testing.T) { checkAgainstReference(t, cmds, cfg()) })
		t.Run(shape.name+"/bus-bound", func(t *testing.T) { checkAgainstReference(t, cmds, busBound) })
		t.Run(shape.name+"/one-slot", func(t *testing.T) { checkAgainstReference(t, cmds, oneSlot) })
	}
}

// FuzzSchedule drives the same comparison from fuzzer-chosen seeds and
// sizes.
func FuzzSchedule(f *testing.F) {
	f.Add(uint64(0), uint16(0))
	f.Add(uint64(1), uint16(1))
	f.Add(uint64(0xA5), uint16(700))
	f.Fuzz(func(t *testing.T, seed uint64, n uint16) {
		cmds, c := randomCase(stats.NewRNG(seed), int(n)%4096)
		checkAgainstReference(t, cmds, c)
	})
}
