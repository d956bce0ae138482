// Package exec is the per-sub-array command-stream layer between the
// functional simulator and the timing/energy models. Every DRAM/PIM command
// a functional sub-array executes is recorded here as a typed record —
// which sub-array, which command kind, and which pipeline stage issued it —
// so the one recorded stream is
// the single source of truth that the serial Meter, the controller
// scheduler (internal/sched), and the per-stage energy attribution all
// consume. The serial Meter totals and the stream totals are maintained in
// lock step by internal/subarray and cross-checked by tests; the scheduler
// derives the parallel makespan from the stream's real sub-array
// attribution instead of a synthetic round-robin spread.
package exec

import (
	"fmt"
	"strings"

	"pimassembler/internal/dram"
)

// Stage tags a command with the assembly-pipeline phase that issued it,
// matching the paper's three procedures plus the bookkeeping phases around
// them.
type Stage uint8

const (
	// StageNone marks commands issued outside a tagged pipeline phase.
	StageNone Stage = iota
	// StageInput is sequence-bank loading (writing reads into DRAM rows).
	StageInput
	// StageHashmap is stage 1: read dispatch from the bank plus the k-mer
	// hash-table probes, inserts, and counter increments (Fig. 5b).
	StageHashmap
	// StageDeBruijn is stage 2a: reading the table back out and writing the
	// adjacency blocks of the graph (Fig. 8 mapping).
	StageDeBruijn
	// StageTraverse is stage 2b: the in-memory degree reductions and the
	// traversal's reads (Fig. 8 reduce/ripple flow).
	StageTraverse
	// StageBulk is the §II-B raw bulk bit-wise workload.
	StageBulk

	numStages
)

var stageNames = [...]string{
	StageNone:     "none",
	StageInput:    "input",
	StageHashmap:  "hashmap",
	StageDeBruijn: "deBruijn",
	StageTraverse: "traverse",
	StageBulk:     "bulk",
}

// String implements fmt.Stringer.
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return fmt.Sprintf("Stage(%d)", uint8(s))
}

// Stages returns every stage in rendering order.
func Stages() []Stage {
	out := make([]Stage, numStages)
	for i := range out {
		out[i] = Stage(i)
	}
	return out
}

// Command is one typed per-sub-array command record.
type Command struct {
	// Subarray is the platform-global sub-array index the command executed
	// in.
	Subarray int
	// Kind is the DRAM/PIM command primitive.
	Kind dram.CommandKind
	// Stage is the pipeline phase that issued the command.
	Stage Stage
	// Rows is how many rows the command's first ACTIVATE opens (1 for
	// normal commands, 2 for two-row AAPs, 3 for TRA). It is derived: a
	// stream stores the three fields above and hands every command back with
	// Rows == Kind.SourceRows(), whatever the recorded value held.
	Rows int
}

// String implements fmt.Stringer.
func (c Command) String() string {
	return fmt.Sprintf("sub%d %v [%v]", c.Subarray, c.Kind, c.Stage)
}

// record is the stored form of a Command: 4 bytes against Command's 32 —
// the kind in bits 0-3, the stage in bits 4-6 and the sub-array index above
// them — so a 1.7 M-command run keeps 7 MB of stream instead of 56 MB.
type record uint32

const (
	kindBits  = 4
	stageBits = 3
	subShift  = kindBits + stageBits
	// maxSubarray is the largest sub-array index a record holds (2^25 − 1;
	// the default geometry has 2^15 sub-arrays).
	maxSubarray = 1<<(32-subShift) - 1
)

// Every kind and every stage must fit its bit field (the stage bound is also
// what keeps Tally.touched's per-sub-array uint8 mask wide enough).
var (
	_ [1<<kindBits - dram.NumCommandKinds]struct{}
	_ [1<<stageBits - numStages]struct{}
)

// pack narrows a Command to its stored form. Every field a sub-array emits
// fits by construction; anything else is a caller bug and panics here, at
// the emission point, rather than being silently truncated.
func pack(c Command) record {
	if uint(c.Subarray) > maxSubarray || uint(c.Kind) >= uint(dram.NumCommandKinds) || c.Stage >= numStages {
		panic(unrecordable(c))
	}
	return record(c.Subarray)<<subShift | record(c.Stage)<<kindBits | record(c.Kind)
}

// unrecordable is pack's panic value: an error type instead of a formatted
// string keeps the formatting, and its cost, out of pack, which then inlines
// into Record.
type unrecordable Command

func (c unrecordable) Error() string {
	return fmt.Sprintf("exec: command with sub-array %d, kind %d, stage %d is not recordable",
		c.Subarray, int(c.Kind), uint8(c.Stage))
}

func (r record) sub() int               { return int(r >> subShift) }
func (r record) kind() dram.CommandKind { return dram.CommandKind(r & (1<<kindBits - 1)) }
func (r record) stage() Stage           { return Stage(r >> kindBits & (1<<stageBits - 1)) }

func (r record) command() Command {
	k := r.kind()
	return Command{Subarray: r.sub(), Kind: k, Stage: r.stage(), Rows: k.SourceRows()}
}

// The stream stores records in fixed-size chunks: appending never copies
// what is already recorded (a single growing slice re-copied the whole log
// at every doubling), and Reset keeps the chunks for the next run.
const (
	chunkShift = 13
	chunkLen   = 1 << chunkShift // 8192 records = 32 KiB
)

// Stream is an append-only command log with aggregation views. It has a
// single writer and takes no lock: sub-arrays driven from one goroutine share
// one stream, and a parallel region gives every sub-array it drives a private
// stream and appends them, in sub-array order, after its goroutines have
// joined (core.Platform.ParallelRegion) — so the recorded order, and every
// schedule derived from it, never depends on goroutine scheduling.
type Stream struct {
	chunks []*[chunkLen]record
	n      int
}

// NewStream returns an empty stream.
func NewStream() *Stream { return &Stream{} }

// Record appends one command.
func (s *Stream) Record(c Command) { s.record(pack(c)) }

func (s *Stream) record(r record) {
	ci := s.n >> chunkShift
	if ci == len(s.chunks) {
		s.chunks = append(s.chunks, new([chunkLen]record))
	}
	s.chunks[ci][s.n&(chunkLen-1)] = r
	s.n++
}

// Append adds every command of o, in o's order, to the end of s.
func (s *Stream) Append(o *Stream) { o.each(s.record) }

// Len returns the number of recorded commands.
func (s *Stream) Len() int { return s.n }

// each calls fn on every record in issue order.
func (s *Stream) each(fn func(record)) {
	left := s.n
	for _, ch := range s.chunks {
		if left < chunkLen {
			for _, r := range ch[:left] {
				fn(r)
			}
			return
		}
		for _, r := range ch {
			fn(r)
		}
		left -= chunkLen
	}
}

// Each calls fn on every recorded command in issue order, without copying
// the stream.
func (s *Stream) Each(fn func(Command)) {
	s.each(func(r record) { fn(r.command()) })
}

// Commands returns a copy of the recorded stream in issue order.
func (s *Stream) Commands() []Command {
	out := make([]Command, 0, s.n)
	s.each(func(r record) { out = append(out, r.command()) })
	return out
}

// Canonical returns the commands in a deterministic round-robin
// interleaving across sub-arrays: each sub-array's own subsequence is
// preserved, and commands are drawn one at a time from every non-exhausted
// sub-array in ascending index order. Use it to schedule a stream recorded
// by a parallel run: the recorded order holds each region sub-array by
// sub-array, which an in-order scheduler can hardly overlap, while the
// canonical interleaving models the cross-sub-array overlap a controller
// could extract.
func (s *Stream) Canonical() []Command {
	// Counting sort by sub-array (stable, so each subsequence keeps its
	// order): end[i] is one past sub-array i's last slot in bySub.
	var end []int
	s.each(func(r record) {
		for r.sub() >= len(end) {
			end = append(end, 0)
		}
		end[r.sub()]++
	})
	next := make([]int, len(end)) // read cursor per sub-array
	sum := 0
	for i, n := range end {
		next[i] = sum
		sum += n
		end[i] = sum
	}
	bySub := make([]record, s.n)
	fill := append([]int(nil), next...)
	s.each(func(r record) {
		bySub[fill[r.sub()]] = r
		fill[r.sub()]++
	})
	// Round-robin over the sub-arrays that still have commands, ascending.
	live := make([]int, 0, len(end))
	for i := range end {
		if next[i] < end[i] {
			live = append(live, i)
		}
	}
	out := make([]Command, 0, s.n)
	for len(live) > 0 {
		keep := live[:0]
		for _, i := range live {
			out = append(out, bySub[next[i]].command())
			if next[i]++; next[i] < end[i] {
				keep = append(keep, i)
			}
		}
		live = keep
	}
	return out
}

// Reset clears the stream, keeping its chunks for reuse.
func (s *Stream) Reset() { s.n = 0 }

// tally runs every record through a fresh Tally priced with t and e.
func (s *Stream) tally(t dram.Timing, e dram.Energy) *Tally {
	ta := NewTally(t, e)
	s.each(ta.add)
	return ta
}

// Totals returns the per-kind command counts — the view the serial
// dram.Meter maintains independently; tests assert the two never drift.
func (s *Stream) Totals() map[dram.CommandKind]int64 { return s.Histogram().Totals }

// Subarrays returns how many distinct sub-arrays the stream touched.
func (s *Stream) Subarrays() int {
	return s.tally(dram.Timing{}, dram.Energy{}).Subarrays()
}

// Histogram is the per-stage × per-kind command breakdown of a stream.
type Histogram struct {
	// PerStage maps stage -> kind -> count.
	PerStage map[Stage]map[dram.CommandKind]int64
	// Totals is the per-kind count over all stages.
	Totals map[dram.CommandKind]int64
	// Commands is the total record count.
	Commands int
}

// Histogram aggregates the stream.
func (s *Stream) Histogram() Histogram {
	return s.tally(dram.Timing{}, dram.Energy{}).Histogram()
}

// histogramKinds is the rendering order of command kinds.
var histogramKinds = []dram.CommandKind{
	dram.CmdAAPCopy, dram.CmdAAP2, dram.CmdAAP3,
	dram.CmdRead, dram.CmdWrite, dram.CmdDPU,
	dram.CmdActivate, dram.CmdPrecharge,
}

// String renders the histogram as a stage × kind table.
func (h Histogram) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-10s", "stage")
	for _, k := range histogramKinds {
		fmt.Fprintf(&sb, " %10s", k)
	}
	fmt.Fprintf(&sb, " %10s\n", "total")
	for _, st := range Stages() {
		m := h.PerStage[st]
		if len(m) == 0 {
			continue
		}
		var total int64
		fmt.Fprintf(&sb, "%-10s", st)
		for _, k := range histogramKinds {
			fmt.Fprintf(&sb, " %10d", m[k])
			total += m[k]
		}
		fmt.Fprintf(&sb, " %10d\n", total)
	}
	fmt.Fprintf(&sb, "%-10s", "all")
	var total int64
	for _, k := range histogramKinds {
		fmt.Fprintf(&sb, " %10d", h.Totals[k])
		total += h.Totals[k]
	}
	fmt.Fprintf(&sb, " %10d\n", total)
	return sb.String()
}

// StageCost is one stage's share of the stream's serial time and energy.
type StageCost struct {
	Stage     Stage
	Commands  int64
	SerialNS  float64
	EnergyPJ  float64
	Subarrays int
}

// String implements fmt.Stringer.
func (c StageCost) String() string {
	return fmt.Sprintf("%-9s %9d cmds  %10.1f µs serial  %10.2f µJ  %4d sub-arrays",
		c.Stage, c.Commands, c.SerialNS/1e3, c.EnergyPJ/1e6, c.Subarrays)
}

// Tally is the running per-stage × per-kind accounting of a command
// sequence: the histogram and the stage attribution, accumulated in fixed
// arrays one command at a time and converted to the exported map and slice
// shapes only when asked. Feed it from Stream.Each next to a scheduler and
// one walk of the stream yields every accounting view.
type Tally struct {
	dur, pj dram.KindTable
	counts  [numStages][dram.NumCommandKinds]int64
	// serial and energy accrue per command in stream order — not as
	// count × price — so the floating-point sums equal the Meter's
	// command-by-command totals bit for bit.
	serial, energy [numStages]float64
	// touched[i] has bit st set once stage st issued a command to
	// sub-array i.
	touched []uint8
}

// NewTally returns an empty tally pricing commands with t and e.
func NewTally(t dram.Timing, e dram.Energy) *Tally {
	return &Tally{dur: dram.DurationTable(t), pj: dram.EnergyTable(e)}
}

// Add accounts one command.
func (ta *Tally) Add(c Command) { ta.add(pack(c)) }

func (ta *Tally) add(r record) {
	sub, kind, stage := r.sub(), r.kind(), r.stage()
	ta.counts[stage][kind]++
	ta.serial[stage] += ta.dur[kind]
	ta.energy[stage] += ta.pj[kind]
	if sub >= len(ta.touched) {
		ta.touched = append(ta.touched, make([]uint8, sub+1-len(ta.touched))...)
	}
	ta.touched[sub] |= 1 << stage
}

// Subarrays returns how many distinct sub-arrays the commands touched.
func (ta *Tally) Subarrays() int {
	n := 0
	for _, m := range ta.touched {
		if m != 0 {
			n++
		}
	}
	return n
}

// Histogram returns the per-stage × per-kind breakdown; stages and kinds
// with no commands have no map entry.
func (ta *Tally) Histogram() Histogram {
	h := Histogram{
		PerStage: make(map[Stage]map[dram.CommandKind]int64),
		Totals:   make(map[dram.CommandKind]int64),
	}
	for st := range ta.counts {
		for k, n := range ta.counts[st] {
			if n == 0 {
				continue
			}
			m := h.PerStage[Stage(st)]
			if m == nil {
				m = make(map[dram.CommandKind]int64)
				h.PerStage[Stage(st)] = m
			}
			m[dram.CommandKind(k)] = n
			h.Totals[dram.CommandKind(k)] += n
			h.Commands += int(n)
		}
	}
	return h
}

// StageCosts returns one StageCost per stage with commands, in stage order.
func (ta *Tally) StageCosts() []StageCost {
	var out []StageCost
	for st := range ta.counts {
		sc := StageCost{Stage: Stage(st), SerialNS: ta.serial[st], EnergyPJ: ta.energy[st]}
		for _, n := range ta.counts[st] {
			sc.Commands += n
		}
		if sc.Commands == 0 {
			continue
		}
		for _, m := range ta.touched {
			if m&(1<<st) != 0 {
				sc.Subarrays++
			}
		}
		out = append(out, sc)
	}
	return out
}
