// Package exec is the per-sub-array command-stream layer between the
// functional simulator and the timing/energy models. Every DRAM/PIM command
// a platform sub-array executes is recorded here, once, as a typed record —
// which sub-array, which command kind, and which pipeline stage issued it —
// so the one recorded stream is the platform's only accounting record: the
// serial command totals, the controller scheduler (internal/sched), and the
// per-stage energy attribution are all read off it. The scheduler derives
// the parallel makespan from the stream's real sub-array attribution instead
// of a synthetic round-robin spread.
package exec

import (
	"fmt"
	"math"
	"slices"
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

// Segment is a run of consecutive commands that one sub-array executed under
// one pipeline stage — the unit the stream stores and the accounting walks.
// The controller sends a k-mer's probe, compare and increment commands to its
// home sub-array in one burst, so a serial run is a few long segments (about
// a hundred commands each) rather than loose commands.
type Segment struct {
	// Subarray is the platform-global sub-array index every command of the
	// segment executed in.
	Subarray int
	// Stage is the pipeline phase that issued them.
	Stage Stage
	// Kinds holds one dram.CommandKind per command, in issue order. From
	// Stream.EachSegment it aliases the stream: read it during the walk only.
	Kinds []uint8
}

const (
	// maxSubarray is the largest sub-array index a stream holds (2^25 − 1;
	// the default geometry has 2^15 sub-arrays).
	maxSubarray = 1<<25 - 1
	// kindBits and stageBits are the fields of Canonical's one-byte sort
	// key; stageBits also bounds Tally.touched's per-sub-array uint8 mask.
	kindBits  = 4
	stageBits = 3
)

// Every kind and every stage must fit its bit field.
var (
	_ [1<<kindBits - dram.NumCommandKinds]struct{}
	_ [1<<stageBits - numStages]struct{}
)

// recordable reports whether the stream can hold c. Every field a sub-array
// emits fits by construction; anything else is a caller bug and panics at
// the emission point rather than being silently truncated.
func recordable(c Command) bool {
	return uint(c.Subarray) <= maxSubarray && uint(c.Kind) < uint(dram.NumCommandKinds) && c.Stage < numStages
}

// unrecordable is the panic value for a command the stream cannot hold: an
// error type instead of a formatted string keeps the formatting, and its
// cost, off the recording path.
type unrecordable Command

func (c unrecordable) Error() string {
	return fmt.Sprintf("exec: command with sub-array %d, kind %d, stage %d is not recordable",
		c.Subarray, int(c.Kind), uint8(c.Stage))
}

// The stream stores one byte per command — its kind — in fixed-size chunks,
// and one header per segment, also chunked: appending never copies what is
// already recorded (a single growing slice re-copied the whole log at every
// doubling), and Reset keeps the chunks for the next run. A segment never
// straddles two kind chunks, so every segment's kinds are one contiguous
// slice; the command that fills a chunk closes its segment.
const (
	chunkShift    = 15
	chunkLen      = 1 << chunkShift // 32 768 kinds = 32 KiB
	segChunkShift = 12
	segChunkLen   = 1 << segChunkShift // 4096 headers = 32 KiB
)

// segment is the stored header of a Segment: its kinds are the n bytes that
// follow the previous segment's. n fits because a segment lies inside one
// kind chunk.
type segment struct {
	sub   uint32
	n     uint16
	stage Stage
}

var _ [math.MaxUint16 + 1 - chunkLen]struct{} // segment.n holds a whole chunk

// Stream is an append-only command log with aggregation views. It has one
// writer and takes no lock: one goroutine drives the sub-arrays that record
// into it, so the recorded order, and every schedule and floating-point sum
// derived from it, is the order the commands were issued in.
type Stream struct {
	kinds   []*[chunkLen]uint8
	headers []*[segChunkLen]segment
	n, segs int // commands and segments recorded
	// open is the last segment's header and cur its kind chunk. Record
	// extends it while the sub-array and the stage repeat and the chunk has
	// room (n is not a multiple of chunkLen), and opens a new one otherwise — always on an empty or Reset stream, where open may be stale.
	open *segment
	cur  *[chunkLen]uint8
}

// NewStream returns an empty stream.
func NewStream() *Stream { return &Stream{} }

// Record appends one command, extending the open segment or opening a new
// one when the sub-array or the stage changes or the kind chunk is full.
func (s *Stream) Record(c Command) {
	if s.n&(chunkLen-1) == 0 || c.Subarray != int(s.open.sub) || c.Stage != s.open.stage || uint(c.Kind) >= uint(dram.NumCommandKinds) {
		s.openFor(c)
	}
	s.cur[s.n&(chunkLen-1)] = uint8(c.Kind)
	s.open.n++
	s.n++
}

// openFor checks c and opens the segment it starts: an empty header for
// c's sub-array and stage, and the kind chunk it starts in if that is new.
func (s *Stream) openFor(c Command) {
	if !recordable(c) {
		panic(unrecordable(c))
	}
	ci := s.n >> chunkShift
	if ci == len(s.kinds) {
		s.kinds = append(s.kinds, new([chunkLen]uint8))
	}
	if s.segs>>segChunkShift == len(s.headers) {
		s.headers = append(s.headers, new([segChunkLen]segment))
	}
	s.open = &s.headers[s.segs>>segChunkShift][s.segs&(segChunkLen-1)]
	*s.open = segment{sub: uint32(c.Subarray), stage: c.Stage}
	s.segs++
	s.cur = s.kinds[ci]
}

// EachSegment calls fn on every segment in issue order, without copying the
// stream. Consecutive segments may share a sub-array and a stage (a segment
// ends where a kind chunk does).
func (s *Stream) EachSegment(fn func(Segment)) {
	first := 0 // index of the segment's first command
	for i := 0; i < s.segs; i++ {
		h := &s.headers[i>>segChunkShift][i&(segChunkLen-1)]
		lo, hi := first&(chunkLen-1), first&(chunkLen-1)+int(h.n)
		fn(Segment{Subarray: int(h.sub), Stage: h.stage, Kinds: s.kinds[first>>chunkShift][lo:hi:hi]})
		first += int(h.n)
	}
}

// Each calls fn on every recorded command in issue order, without copying
// the stream.
func (s *Stream) Each(fn func(Command)) {
	s.EachSegment(func(seg Segment) {
		for _, k := range seg.Kinds {
			kind := dram.CommandKind(k)
			fn(Command{Subarray: seg.Subarray, Kind: kind, Stage: seg.Stage, Rows: kind.SourceRows()})
		}
	})
}

// Commands returns a copy of the recorded stream in issue order.
func (s *Stream) Commands() []Command {
	out := make([]Command, 0, s.n)
	s.Each(func(c Command) { out = append(out, c) })
	return out
}

// Canonical returns the commands in a deterministic round-robin
// interleaving across sub-arrays: each sub-array's own subsequence is
// preserved, and commands are drawn one at a time from every non-exhausted
// sub-array in ascending index order. It depends on nothing but those
// subsequences, so any two runs that issue the same commands to each
// sub-array — whatever order they interleaved them in — share it. Use it to
// model the cross-sub-array overlap a controller could extract: the recorded
// order of a serial run sends each k-mer's burst to its home sub-array before
// the next begins, which an in-order scheduler can hardly overlap.
func (s *Stream) Canonical() []Command {
	// Counting sort by sub-array (stable, so each subsequence keeps its
	// order) over the distinct sub-arrays ids, ascending, so that the cost
	// follows the segments and not the largest index: end[r] is one past
	// sub-array ids[r]'s last slot in bySub, which holds each command as
	// stage<<kindBits | kind.
	var ids []int
	s.EachSegment(func(seg Segment) { ids = append(ids, seg.Subarray) })
	slices.Sort(ids)
	ids = slices.Compact(ids)
	rank := func(sub int) int { r, _ := slices.BinarySearch(ids, sub); return r }
	end := make([]int, len(ids))
	s.EachSegment(func(seg Segment) { end[rank(seg.Subarray)] += len(seg.Kinds) })
	next := make([]int, len(end)) // read cursor per sub-array
	sum := 0
	for r, n := range end {
		next[r] = sum
		sum += n
		end[r] = sum
	}
	bySub := make([]uint8, s.n)
	fill := append([]int(nil), next...)
	s.EachSegment(func(seg Segment) {
		r := rank(seg.Subarray)
		at := bySub[fill[r]:]
		for j, k := range seg.Kinds {
			at[j] = uint8(seg.Stage)<<kindBits | k
		}
		fill[r] += len(seg.Kinds)
	})
	// Round-robin over the sub-arrays, ascending; each has commands.
	live := make([]int, len(ids))
	for r := range live {
		live[r] = r
	}
	out := make([]Command, 0, s.n)
	for len(live) > 0 {
		keep := live[:0]
		for _, r := range live {
			b := bySub[next[r]]
			kind := dram.CommandKind(b & (1<<kindBits - 1))
			out = append(out, Command{Subarray: ids[r], Kind: kind, Stage: Stage(b >> kindBits), Rows: kind.SourceRows()})
			if next[r]++; next[r] < end[r] {
				keep = append(keep, r)
			}
		}
		live = keep
	}
	return out
}

// Reset clears the stream, keeping its chunks for reuse.
func (s *Stream) Reset() { s.n, s.segs = 0, 0 }

// Histogram is the per-stage × per-kind command breakdown of a stream
// (Tally.Histogram).
type Histogram struct {
	// PerStage maps stage -> kind -> count.
	PerStage map[Stage]map[dram.CommandKind]int64
	// Totals is the per-kind count over all stages.
	Totals map[dram.CommandKind]int64
	// Commands is the total record count.
	Commands int
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

// StageSums is one stage's running share of a Tally: its command count per
// kind, and its serial time and energy accrued command by command in stream
// order — not as count × price — so the floating-point sums are those of a
// command-by-command walk of the stream, bit for bit.
type StageSums struct {
	Counts   [dram.NumCommandKinds]int64
	SerialNS float64
	EnergyPJ float64
}

// Tally is the running per-stage × per-kind accounting of a command
// sequence: the histogram, the stage attribution and the whole run's energy,
// accumulated in fixed arrays a segment at a time and converted to the
// exported map and slice shapes only when asked. Fed next to a scheduler
// (sched.Pass.AddSegment), one walk of the stream yields every accounting
// view.
type Tally struct {
	dur, pj dram.KindTable
	stages  [numStages]StageSums
	// energy is the whole run's energy, accrued command by command in stream
	// order: not the sum of the stages' subtotals, which rounds differently.
	energy float64
	// touched[i] has bit st set once stage st issued a command to
	// sub-array i.
	touched []uint8
}

// NewTally returns an empty tally pricing commands with t and e.
func NewTally(t dram.Timing, e dram.Energy) *Tally {
	return &Tally{dur: dram.DurationTable(t), pj: dram.EnergyTable(e)}
}

// Open marks sub-array sub as touched by stage st and returns st's running
// sums, the whole run's running energy, and the tally's duration and energy
// tables: the entry point of a caller that accounts a segment inside its own
// loop, as sched.Pass.AddSegment does. Such a caller adds, for each command
// of the segment in issue order, one count, the command's two prices to the
// stage's sums and its energy to the run's.
func (ta *Tally) Open(sub int, st Stage) (sums *StageSums, total *float64, dur, pj *dram.KindTable) {
	if uint(sub) > maxSubarray || st >= numStages {
		panic(unrecordable(Command{Subarray: sub, Stage: st}))
	}
	if sub >= len(ta.touched) {
		ta.touched = append(ta.touched, make([]uint8, sub+1-len(ta.touched))...)
	}
	ta.touched[sub] |= 1 << st
	return &ta.stages[st], &ta.energy, &ta.dur, &ta.pj
}

// EnergyPJ returns the whole run's dynamic energy: every command's price,
// summed in stream order.
func (ta *Tally) EnergyPJ() float64 { return ta.energy }

// Histogram returns the per-stage × per-kind breakdown; stages and kinds
// with no commands have no map entry.
func (ta *Tally) Histogram() Histogram {
	h := Histogram{
		PerStage: make(map[Stage]map[dram.CommandKind]int64),
		Totals:   make(map[dram.CommandKind]int64),
	}
	for st := range ta.stages {
		for k, n := range ta.stages[st].Counts {
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
	for st, sums := range ta.stages {
		sc := StageCost{Stage: Stage(st), SerialNS: sums.SerialNS, EnergyPJ: sums.EnergyPJ}
		for _, n := range sums.Counts {
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
