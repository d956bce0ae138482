// Package sched is the controller's command scheduler model: it maps a
// stream of per-sub-array DRAM commands onto the shared command bus and the
// banks' concurrency limits, computing the parallel makespan that the
// serial command-time total over-states. This is the timing glue between
// the functional simulator and the analytical models (which assume a level
// of parallelism): the scheduler derives that parallelism from first
// principles — issue bandwidth, per-sub-array occupancy, and the per-bank
// activation budget. Its input is the recorded command stream of
// internal/exec (Pass, a segment at a time, or ScheduleStream over a copy),
// so the functional run's real sub-array attribution — not a synthetic
// spread of aggregate counts — determines the overlap.
package sched

import (
	"fmt"

	"pimassembler/internal/dram"
	"pimassembler/internal/exec"
)

// Config bounds the schedule.
type Config struct {
	// Timing supplies per-command durations.
	Timing dram.Timing
	// IssueIntervalNS is the minimum spacing between command issues on the
	// shared bus (command/address bandwidth).
	IssueIntervalNS float64
	// SubarraysPerBank maps sub-array IDs to banks (ID / SubarraysPerBank).
	SubarraysPerBank int
	// MaxActivePerBank caps concurrently executing commands per bank — the
	// charge-pump/power-delivery budget that keeps whole-bank concurrent
	// activation from browning out the array.
	MaxActivePerBank int
}

// DefaultConfig returns the PIM-Assembler controller's parameters for a
// geometry: one command per bus clock, banks sized per the geometry, and a
// per-bank activation budget of a quarter of its sub-arrays.
func DefaultConfig(g dram.Geometry, t dram.Timing) Config {
	return Config{
		Timing:           t,
		IssueIntervalNS:  t.TCK,
		SubarraysPerBank: g.SubarraysPerBank(),
		MaxActivePerBank: max(1, g.SubarraysPerBank()/4),
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if err := c.Timing.Validate(); err != nil {
		return err
	}
	if c.IssueIntervalNS <= 0 {
		return fmt.Errorf("sched: non-positive issue interval %v", c.IssueIntervalNS)
	}
	if c.SubarraysPerBank <= 0 || c.MaxActivePerBank <= 0 {
		return fmt.Errorf("sched: non-positive bank parameters %+v", c)
	}
	return nil
}

// Result summarises one schedule.
type Result struct {
	MakespanNS   float64
	SerialNS     float64 // sum of command durations (the serial command time)
	Commands     int
	Speedup      float64 // SerialNS / MakespanNS
	BusBoundPct  float64 // fraction of makespan the bus was issuing
	PeakParallel int     // maximum concurrently executing commands
}

// String implements fmt.Stringer.
func (r Result) String() string {
	return fmt.Sprintf("sched.Result{%d cmds, makespan %.1f µs, speedup %.1fx, bus %.0f%%, peak %d}",
		r.Commands, r.MakespanNS/1e3, r.Speedup, r.BusBoundPct, r.PeakParallel)
}

// minHeap is a binary min-heap of completion times. It is hand-rolled over
// []float64 because container/heap boxes every pushed and popped value in
// an interface — two allocations per scheduled command.
type minHeap []float64

func (h *minHeap) push(x float64) {
	a := append(*h, x)
	i := len(a) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if a[parent] <= x {
			break
		}
		a[i] = a[parent]
		i = parent
	}
	a[i] = x
	*h = a
}

// pop removes the minimum, a[0].
func (h *minHeap) pop() {
	a := *h
	n := len(a) - 1
	x := a[n]
	a = a[:n]
	i := 0
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if child+1 < n && a[child+1] < a[child] {
			child++
		}
		if x <= a[child] {
			break
		}
		a[i] = a[child]
		i = child
	}
	if n > 0 {
		a[i] = x
	}
	*h = a
}

// popUntil drops every completion time at or before t.
func (h *minHeap) popUntil(t float64) {
	for len(*h) > 0 && (*h)[0] <= t {
		h.pop()
	}
}

// scheduler is the greedy in-order scheduler in incremental form: step
// issues the next command of the stream, result reads the schedule so far.
// Commands issue in stream order, each at the earliest time satisfying
// (1) the command-bus spacing, (2) its sub-array being free, and (3) its
// bank having an activation slot. Commands to distinct sub-arrays overlap
// freely within those constraints, which is exactly the intra-sub-array
// parallelism the paper exploits.
//
// All state is flat: sub-array ids are dense platform indices, so the
// per-sub-array free times and the per-bank slot heaps are slices indexed
// by id and grown on demand.
type scheduler struct {
	dur       dram.KindTable // occupancy per kind — dram.Duration, so SerialNS is the serial command time
	issueNS   float64
	perBank   int
	maxActive int

	subFree []float64 // per sub-array: when its last command completes
	banks   []minHeap // per bank: completion times of its executing commands
	// active holds the completion times of every command still executing at
	// the latest issue time, over all banks; its high-water mark is the
	// peak parallelism. Issue times never decrease and every duration is
	// positive (Config.Validate), so a command's start is at or after every
	// earlier start and before every later end: popping the ends at or
	// before each start and counting what remains visits exactly the maxima
	// of the sweep over all (start,+1)/(end,−1) events sorted by time with
	// ends first. A zero-duration command or a zero issue interval would
	// break that ordering, and Validate rejects both.
	active minHeap
	// chain is the sub-array the last command went to if that command was
	// the only one executing when it issued, else -1. A further command to
	// the same sub-array then meets no constraint but the bus and its
	// predecessor, and takes that predecessor's place as the only entry of
	// its bank's heap and of active: step computes its times from subFree
	// alone and leaves both heaps stale until endChain, when a command to
	// another sub-array ends the chain. A serial functional run is almost
	// all such chains — dozens of commands per k-mer to its home sub-array —
	// which Pass.AddSegment runs as one loop per segment.
	chain int

	nextIssue, makespan, serial float64
	commands, peak              int
}

// newScheduler returns an idle scheduler, panicking on a configuration it
// cannot run.
func newScheduler(cfg Config) *scheduler {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &scheduler{
		dur:       dram.DurationTable(cfg.Timing),
		issueNS:   cfg.IssueIntervalNS,
		perBank:   cfg.SubarraysPerBank,
		maxActive: cfg.MaxActivePerBank,
		chain:     -1,
	}
}

// endChain gives the two one-entry heaps the completion time the chain kept
// in subFree only.
func (s *scheduler) endChain() {
	if s.chain >= 0 {
		end := s.subFree[s.chain]
		s.banks[s.chain/s.perBank][0] = end
		s.active[0] = end
		s.chain = -1
	}
}

func (s *scheduler) step(sub int, kind dram.CommandKind) {
	if sub < 0 {
		panic(fmt.Sprintf("sched: negative sub-array id %d", sub))
	}
	if kind < 0 || int(kind) >= dram.NumCommandKinds {
		panic(fmt.Sprintf("sched: unknown command kind %v", kind))
	}
	dur := s.dur[kind]
	s.serial += dur
	s.commands++

	chained := sub == s.chain
	var h *minHeap
	if !chained {
		s.endChain()
		bank := sub / s.perBank
		if sub >= len(s.subFree) {
			s.subFree = append(s.subFree, make([]float64, sub+1-len(s.subFree))...)
		}
		if bank >= len(s.banks) {
			s.banks = append(s.banks, make([]minHeap, bank+1-len(s.banks))...)
		}
		h = &s.banks[bank]
	}

	start := s.nextIssue
	if f := s.subFree[sub]; f > start {
		start = f
	}
	if !chained {
		// Drop completed intervals, then wait for a slot if saturated.
		h.popUntil(start)
		if len(*h) >= s.maxActive {
			if earliest := (*h)[0]; earliest > start {
				start = earliest
			}
			h.popUntil(start)
		}
	}

	end := start + dur
	s.subFree[sub] = end
	s.nextIssue = start + s.issueNS
	if end > s.makespan {
		s.makespan = end
	}
	if chained {
		return
	}

	h.push(end)
	s.active.popUntil(start)
	s.active.push(end)
	if len(s.active) > s.peak {
		s.peak = len(s.active)
	}
	if len(s.active) == 1 {
		s.chain = sub
	}
}

func (s *scheduler) result() Result {
	res := Result{
		MakespanNS:   s.makespan,
		SerialNS:     s.serial,
		Commands:     s.commands,
		PeakParallel: s.peak,
	}
	if s.makespan > 0 {
		res.Speedup = s.serial / s.makespan
		res.BusBoundPct = 100 * float64(s.commands) * s.issueNS / s.makespan
		if res.BusBoundPct > 100 {
			res.BusBoundPct = 100
		}
	}
	return res
}

// ScheduleStream schedules a recorded command stream directly: each typed
// record keeps the sub-array the functional simulator actually executed it
// in, so the computed overlap reflects the run's real data placement. This
// replaces the old aggregate-count round-robin estimate — the stream is the
// single source of truth shared with the serial totals and the energy
// attribution.
func ScheduleStream(cmds []exec.Command, cfg Config) Result {
	s := newScheduler(cfg)
	for _, c := range cmds {
		s.step(c.Subarray, c.Kind)
	}
	return s.result()
}

// stageSet schedules each pipeline stage's subsequence on its own
// scheduler, created at the stage's first command.
type stageSet struct {
	cfg Config
	by  []*scheduler // indexed by exec.Stage
}

// get returns stage st's scheduler, creating it if st has none yet.
func (ss *stageSet) get(st exec.Stage) *scheduler {
	if int(st) >= len(ss.by) {
		ss.by = append(ss.by, make([]*scheduler, int(st)+1-len(ss.by))...)
	}
	if ss.by[st] == nil {
		ss.by[st] = newScheduler(ss.cfg)
	}
	return ss.by[st]
}

func (ss *stageSet) results() map[exec.Stage]Result {
	out := make(map[exec.Stage]Result)
	for st, s := range ss.by {
		if s != nil {
			out[exec.Stage(st)] = s.result()
		}
	}
	return out
}

// ScheduleStages schedules each pipeline stage's subsequence independently,
// returning one Result per stage present in the stream. Stages execute
// back-to-back in the pipeline, so the whole-run makespan is bounded below
// by the sum of the per-stage makespans.
func ScheduleStages(cmds []exec.Command, cfg Config) map[exec.Stage]Result {
	ss := stageSet{cfg: cfg}
	for _, c := range cmds {
		ss.get(c.Stage).step(c.Subarray, c.Kind)
	}
	return ss.results()
}

// Pass schedules a recorded stream as it streams by, a segment at a time —
// the whole run and every pipeline stage's subsequence at once — so a single
// walk of the stream (exec.Stream.EachSegment) yields what ScheduleStream
// and ScheduleStages would compute from two copies of it.
type Pass struct {
	whole  *scheduler
	stages stageSet
}

// NewPass returns an empty pass. Like ScheduleStream, it panics on an
// invalid configuration.
func NewPass(cfg Config) *Pass {
	return &Pass{whole: newScheduler(cfg), stages: stageSet{cfg: cfg}}
}

// AddSegment issues the segment's commands, in order, to the whole-run
// schedule and to its stage's, and accounts them on ta, in one loop.
//
// Commands take step's general path until both schedulers are chained on
// the segment's sub-array — usually two or three commands into the segment,
// once the previous segment's last commands have completed. A scheduler
// chained on a sub-array stays chained while commands go to it, so from then
// on every command of the segment is a chained step on both, and the rest of
// the segment runs in one fused loop that keeps each scheduler's next issue
// time, sub-array free time, makespan and serial sum, and the tally's sums,
// in locals. It does the float operations of step's chained path and of
// exec.Tally.AddSegment, in the same order, so every Result and every tally
// figure is bit-identical to feeding the commands one at a time.
func (p *Pass) AddSegment(seg exec.Segment, ta *exec.Tally) {
	kinds := seg.Kinds
	if len(kinds) == 0 {
		return
	}
	sub := seg.Subarray
	sums, total, tdur, tpj := ta.Open(sub, seg.Stage)
	whole, stage := p.whole, p.stages.get(seg.Stage)
	tSerial, tEnergy, tTotal := sums.SerialNS, sums.EnergyPJ, *total
	i := 0
	for i < len(kinds) && (i == 0 || whole.chain != sub || stage.chain != sub) {
		k := kinds[i]
		whole.step(sub, dram.CommandKind(k))
		stage.step(sub, dram.CommandKind(k))
		sums.Counts[k]++
		tSerial += tdur[k]
		tEnergy += tpj[k]
		tTotal += tpj[k]
		i++
	}
	if rest := kinds[i:]; len(rest) > 0 {
		// Both schedulers come from one Config: one duration table, one bus.
		dur, issue := &whole.dur, whole.issueNS
		wNext, wFree, wMake, wSerial := whole.nextIssue, whole.subFree[sub], whole.makespan, whole.serial
		sNext, sFree, sMake, sSerial := stage.nextIssue, stage.subFree[sub], stage.makespan, stage.serial
		for _, k := range rest {
			d := dur[k]
			wSerial += d
			start := wNext
			if wFree > start {
				start = wFree
			}
			wFree = start + d
			wNext = start + issue
			if wFree > wMake {
				wMake = wFree
			}

			sSerial += d
			start = sNext
			if sFree > start {
				start = sFree
			}
			sFree = start + d
			sNext = start + issue
			if sFree > sMake {
				sMake = sFree
			}

			sums.Counts[k]++
			tSerial += tdur[k]
			tEnergy += tpj[k]
			tTotal += tpj[k]
		}
		whole.nextIssue, whole.subFree[sub], whole.makespan, whole.serial = wNext, wFree, wMake, wSerial
		stage.nextIssue, stage.subFree[sub], stage.makespan, stage.serial = sNext, sFree, sMake, sSerial
		whole.commands += len(rest)
		stage.commands += len(rest)
	}
	sums.SerialNS, sums.EnergyPJ, *total = tSerial, tEnergy, tTotal
}

// Whole returns the schedule of everything added so far.
func (p *Pass) Whole() Result { return p.whole.result() }

// Stages returns one schedule per stage added so far.
func (p *Pass) Stages() map[exec.Stage]Result { return p.stages.results() }
