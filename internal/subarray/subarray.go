// Package subarray is the bit-accurate functional model of one PIM-Assembler
// computational sub-array: 1016 data rows plus 8 compute rows (x1..x8) wired
// to the modified row decoder, a reconfigurable sense amplifier per
// bit-line, and the MAT-level DPU reduction port.
//
// Every operation both computes the digital result and records its DRAM
// command, once: into the command stream a platform attaches
// (AttachRecorder), or, on a detached sub-array, into its Meter. Functional
// runs double as cycle/energy measurements. The digital fast path is
// property-tested against the analog model in internal/circuit (see
// verify_test.go): the charge-sharing sense amplifier and these bitwise
// operations are the same function expressed at two abstraction levels.
package subarray

import (
	"fmt"

	"pimassembler/internal/bitvec"
	"pimassembler/internal/dram"
	"pimassembler/internal/exec"
)

// FaultHook observes (and may corrupt) the result row of an in-memory
// compute operation before it is written back — the injection point for
// process-variation fault studies (internal/fault). kind identifies the
// mechanism: CmdAAP2 for two-row activation, CmdAAP3 for TRA.
type FaultHook func(kind dram.CommandKind, result *bitvec.Vector)

// Subarray models one computational sub-array.
type Subarray struct {
	rows        int
	computeRows int

	cells []*bitvec.Vector // row-major cell state
	latch *bitvec.Vector   // per-column SA D-latch (carry storage)
	meter *dram.Meter      // the sink while no stream is attached
	fault FaultHook

	// t1, t2 are scratch rows reused by the compute primitives, which keep
	// the per-command fast paths allocation-free. Every use fully
	// overwrites them first; they are never aliased with cell rows.
	t1, t2 *bitvec.Vector

	// rec receives typed per-command records (nil: the meter does); id is
	// the platform-global sub-array index stamped on every record and stage
	// the pipeline phase tag the current caller set.
	rec   *exec.Stream
	id    int
	stage exec.Stage
}

// AttachRecorder binds the sub-array to a command stream under the given
// platform-global sub-array id; from then on the stream, not the meter,
// records every command. A nil stream detaches. The stream has no lock:
// sub-arrays driven from different goroutines must not share one.
func (s *Subarray) AttachRecorder(r *exec.Stream, id int) {
	s.rec = r
	s.id = id
}

// SetStage tags subsequent commands with the pipeline stage issuing them.
func (s *Subarray) SetStage(st exec.Stage) { s.stage = st }

// record accounts one command in exactly one sink. With a stream attached it
// emits the typed per-sub-array record — the stream extends its open segment
// while this sub-array and stage repeat, and opens a new one when they
// change — and every other view (serial totals, schedules, energy) is read
// off that stream. A detached sub-array accounts the command on its meter.
func (s *Subarray) record(kind dram.CommandKind) {
	if s.rec != nil {
		s.rec.Record(exec.Command{Subarray: s.id, Kind: kind, Stage: s.stage})
		return
	}
	s.meter.Record(kind, 1)
}

// SetFaultHook installs (or clears, with nil) the fault-injection hook.
func (s *Subarray) SetFaultHook(h FaultHook) { s.fault = h }

// applyFault runs the hook on a freshly computed result row.
func (s *Subarray) applyFault(kind dram.CommandKind, result *bitvec.Vector) {
	if s.fault != nil {
		s.fault(kind, result)
	}
}

// New creates a sub-array from a geometry and the command meter it records
// into while no stream is attached. The meter may be shared across
// sub-arrays that execute sequentially; sub-arrays driven from different
// goroutines each need their own. A sub-array that is attached to a stream
// before its first command — as every platform sub-array is — needs none
// (nil).
func New(g dram.Geometry, meter *dram.Meter) *Subarray {
	if err := g.Validate(); err != nil {
		panic(err)
	}
	// One batch holds the cell rows, the latch and the two scratch rows.
	vecs := bitvec.NewBatch(g.ColsPerSubarray, g.RowsPerSubarray+3)
	return &Subarray{
		rows:        g.RowsPerSubarray,
		computeRows: g.ComputeRows,
		cells:       vecs[:g.RowsPerSubarray:g.RowsPerSubarray],
		latch:       vecs[g.RowsPerSubarray],
		t1:          vecs[g.RowsPerSubarray+1],
		t2:          vecs[g.RowsPerSubarray+2],
		meter:       meter,
	}
}

// ComputeRow returns the absolute row index of compute row x(i+1), i.e.
// ComputeRow(0) is x1. Compute rows occupy the top of the row space.
func (s *Subarray) ComputeRow(i int) int {
	if i < 0 || i >= s.computeRows {
		panic(fmt.Sprintf("subarray: compute row %d out of range [0,%d)", i, s.computeRows))
	}
	return s.rows - s.computeRows + i
}

// IsComputeRow reports whether absolute row r is one of x1..x8.
func (s *Subarray) IsComputeRow(r int) bool {
	return r >= s.rows-s.computeRows && r < s.rows
}

func (s *Subarray) checkRow(r int) {
	if r < 0 || r >= s.rows {
		panic(fmt.Sprintf("subarray: row %d out of range [0,%d)", r, s.rows))
	}
}

func (s *Subarray) checkComputeRow(r int) {
	s.checkRow(r)
	if !s.IsComputeRow(r) {
		panic(fmt.Sprintf("subarray: row %d is not a compute row; the modified row decoder only multi-activates x1..x%d", r, s.computeRows))
	}
}

// Write stores data into row r through the normal memory path.
func (s *Subarray) Write(r int, data *bitvec.Vector) {
	s.checkRow(r)
	s.cells[r].CopyFrom(data)
	s.record(dram.CmdWrite)
}

// Fill writes the constant row of all-b bits into row r through the normal
// memory path — Write of a constant, without the caller building the row.
func (s *Subarray) Fill(r int, b bool) {
	s.checkRow(r)
	s.cells[r].Fill(b)
	s.record(dram.CmdWrite)
}

// ReadInto reads row r through the normal memory path into the caller-owned
// dst, avoiding Read's per-call clone allocation — the bulk-loop fast path.
func (s *Subarray) ReadInto(r int, dst *bitvec.Vector) {
	s.checkRow(r)
	s.record(dram.CmdRead)
	dst.CopyFrom(s.cells[r])
}

// Peek returns row r without cost accounting (simulator introspection only).
func (s *Subarray) Peek(r int) *bitvec.Vector {
	s.checkRow(r)
	return s.cells[r].Clone()
}

// Poke sets row r without cost accounting (simulator setup only).
func (s *Subarray) Poke(r int, data *bitvec.Vector) {
	s.checkRow(r)
	s.cells[r].CopyFrom(data)
}

// RowClone copies row src to row dst with a type-1 AAP (RowClone FPM).
func (s *Subarray) RowClone(src, dst int) {
	s.checkRow(src)
	s.checkRow(dst)
	s.cells[dst].CopyFrom(s.cells[src])
	s.record(dram.CmdAAPCopy)
}

// TwoRowXNOR executes the paper's single-cycle type-2 AAP: compute rows xa
// and xb are simultaneously activated, the reconfigurable SA resolves XNOR2
// on BL (and XOR2 on BLbar), and the result is written to dst. The charge
// sharing is destructive: both compute rows restore to the XNOR2 result,
// matching the Fig. 3a transient where the cell capacitors end at the
// result value.
func (s *Subarray) TwoRowXNOR(xa, xb, dst int) {
	s.checkComputeRow(xa)
	s.checkComputeRow(xb)
	s.checkRow(dst)
	res := s.t1
	res.Xnor(s.cells[xa], s.cells[xb])
	s.applyFault(dram.CmdAAP2, res)
	s.cells[xa].CopyFrom(res)
	s.cells[xb].CopyFrom(res)
	s.cells[dst].CopyFrom(res)
	s.record(dram.CmdAAP2)
}

// TwoRowXOR is TwoRowXNOR with the MUX selectors swapped so dst receives
// XOR2 (the complementary BLbar value).
func (s *Subarray) TwoRowXOR(xa, xb, dst int) {
	s.checkComputeRow(xa)
	s.checkComputeRow(xb)
	s.checkRow(dst)
	res := s.t1
	res.Xor(s.cells[xa], s.cells[xb])
	s.applyFault(dram.CmdAAP2, res)
	xnor := s.t2
	xnor.Not(res)
	// Cells restore to the BL value (XNOR side in this MUX configuration
	// feeds the write-back, complement goes to dst).
	s.cells[xa].CopyFrom(xnor)
	s.cells[xb].CopyFrom(xnor)
	s.cells[dst].CopyFrom(res)
	s.record(dram.CmdAAP2)
}

// TRACarry executes the type-3 AAP (Ambit triple-row activation): rows xa,
// xb, xc are activated together, the regular SA resolves 3-input majority,
// the result lands in dst and is captured by the per-column D-latch. All
// three compute rows restore to the majority value.
func (s *Subarray) TRACarry(xa, xb, xc, dst int) {
	s.checkComputeRow(xa)
	s.checkComputeRow(xb)
	s.checkComputeRow(xc)
	s.checkRow(dst)
	res := s.t1
	res.Maj3(s.cells[xa], s.cells[xb], s.cells[xc])
	s.applyFault(dram.CmdAAP3, res)
	s.cells[xa].CopyFrom(res)
	s.cells[xb].CopyFrom(res)
	s.cells[xc].CopyFrom(res)
	s.cells[dst].CopyFrom(res)
	s.latch.CopyFrom(res)
	s.record(dram.CmdAAP3)
}

// SumWithLatch executes the Sum cycle of the paper's two-cycle addition:
// with the latch enabled, the add-on XOR gate combines the two-row XOR2 of
// xa, xb with the previously latched carry, producing
// dst = xa XOR xb XOR latch. The compute rows restore to their XNOR2 value
// as in TwoRowXNOR; the latch is preserved for inspection.
func (s *Subarray) SumWithLatch(xa, xb, dst int) {
	s.checkComputeRow(xa)
	s.checkComputeRow(xb)
	s.checkRow(dst)
	x := s.t1
	x.Xor(s.cells[xa], s.cells[xb])
	sum := s.t2
	sum.Xor(x, s.latch)
	s.applyFault(dram.CmdAAP2, sum)
	x.Not(x) // in-place word-wise inversion: x now holds the XNOR restore value
	s.cells[xa].CopyFrom(x)
	s.cells[xb].CopyFrom(x)
	s.cells[dst].CopyFrom(sum)
	s.record(dram.CmdAAP2)
}

// ResetLatch clears the carry latch (one DPU-issued control op).
func (s *Subarray) ResetLatch() {
	s.latch.Fill(false)
	s.record(dram.CmdDPU)
}

// XNOR is the staged convenience operation the controller issues for
// PIM_XNOR: RowClone srcA→x1, RowClone srcB→x2, then the single-cycle
// two-row XNOR into dst. Cost: 3 AAPs.
func (s *Subarray) XNOR(srcA, srcB, dst int) {
	x1, x2 := s.ComputeRow(0), s.ComputeRow(1)
	s.RowClone(srcA, x1)
	s.RowClone(srcB, x2)
	s.TwoRowXNOR(x1, x2, dst)
}

// MatchAllOnes is the DPU's row-wide AND reduction: it reads the sub-array's
// sensed row r and reports whether every bit is '1'. Used after a PIM_XNOR
// to detect an exact k-mer match (Fig. 7).
func (s *Subarray) MatchAllOnes(r int) bool {
	s.checkRow(r)
	s.record(dram.CmdDPU)
	return s.cells[r].AllOnes()
}

// XNOREmulatedTRA computes srcA XNOR srcB into dst using only the
// operations a majority-based design (Ambit) has: triple-row-activation
// majority with initialised control rows and one-cycle row inversion
// (dual-contact NOT, modelled by the XOR-with-ones path at equal cost).
// The identity is a XNOR b = OR(AND(a, b), AND(NOT a, NOT b)).
//
// It exists for the baseline-emulation studies: building the same hash
// table with XNOR (3 command slots) and XNOREmulatedTRA (18 slots) measures
// the end-to-end cost gap between the paper's single-cycle mechanism and
// the majority-based alternative on identical data.
func (s *Subarray) XNOREmulatedTRA(srcA, srcB, dst int) {
	x1, x2, x3 := s.ComputeRow(0), s.ComputeRow(1), s.ComputeRow(2)
	// Scratch rows live in the compute region to avoid clobbering data.
	notA, notB := s.ComputeRow(3), s.ComputeRow(4)
	and1, and2 := s.ComputeRow(5), s.ComputeRow(6)
	// and1 = MAJ(a, b, 0).
	s.Fill(x3, false)
	s.RowClone(srcA, x1)
	s.RowClone(srcB, x2)
	s.TRACarry(x1, x2, x3, and1)
	// notA = a XOR 1, notB = b XOR 1.
	s.Fill(x2, true)
	s.RowClone(srcA, x1)
	s.TwoRowXOR(x1, x2, notA)
	s.Fill(x2, true)
	s.RowClone(srcB, x1)
	s.TwoRowXOR(x1, x2, notB)
	// and2 = MAJ(notA, notB, 0).
	s.Fill(x3, false)
	s.RowClone(notA, x1)
	s.RowClone(notB, x2)
	s.TRACarry(x1, x2, x3, and2)
	// dst = MAJ(and1, and2, 1) = OR.
	s.Fill(x3, true)
	s.RowClone(and1, x1)
	s.RowClone(and2, x2)
	s.TRACarry(x1, x2, x3, dst)
}
