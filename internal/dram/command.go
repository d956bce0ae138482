package dram

import "fmt"

// CommandKind enumerates the DRAM and PIM command primitives PIM-Assembler's
// controller issues. The three AAP variants correspond to the paper's §II-B
// "Software Support" instruction types.
type CommandKind int

const (
	// CmdActivate opens one row (normal DRAM ACTIVATE).
	CmdActivate CommandKind = iota
	// CmdPrecharge closes the open row(s).
	CmdPrecharge
	// CmdRead performs a column read burst through the row buffer.
	CmdRead
	// CmdWrite performs a column write burst through the row buffer.
	CmdWrite
	// CmdAAPCopy is the type-1 AAP(src, des, size): RowClone copy.
	CmdAAPCopy
	// CmdAAP2 is the type-2 AAP(src1, src2, des, size): two-row activation
	// computing X(N)OR/NOR/NAND in the reconfigurable SA.
	CmdAAP2
	// CmdAAP3 is the type-3 AAP(src1, src2, src3, des, size): Ambit-style
	// triple-row activation computing 3-input majority (carry).
	CmdAAP3
	// CmdDPU is a MAT-level digital processing unit operation (non-bulk).
	CmdDPU
)

// NumCommandKinds is the number of command primitives: CommandKind values
// are 0..NumCommandKinds-1, so a fixed array indexed by kind covers them all.
const NumCommandKinds = int(CmdDPU) + 1

var commandNames = [...]string{
	CmdActivate:  "ACTIVATE",
	CmdPrecharge: "PRECHARGE",
	CmdRead:      "READ",
	CmdWrite:     "WRITE",
	CmdAAPCopy:   "AAP.copy",
	CmdAAP2:      "AAP.2src",
	CmdAAP3:      "AAP.3src",
	CmdDPU:       "DPU",
}

// String implements fmt.Stringer.
func (k CommandKind) String() string {
	if k < 0 || int(k) >= len(commandNames) {
		return fmt.Sprintf("CommandKind(%d)", int(k))
	}
	return commandNames[k]
}

// SourceRows returns how many rows the first ACTIVATE of the command opens:
// 1 for normal commands and copies, 2 for two-row AAPs, 3 for TRA.
func (k CommandKind) SourceRows() int {
	switch k {
	case CmdAAPCopy:
		return 1
	case CmdAAP2:
		return 2
	case CmdAAP3:
		return 3
	default:
		return 1
	}
}

// computes reports whether the command engages the add-on SA logic.
func (k CommandKind) computes() bool { return k == CmdAAP2 || k == CmdAAP3 }

// Duration returns one command's critical-path latency in nanoseconds under
// a timing model. It is the single pricing function shared by the Meter,
// the controller scheduler, and the command-stream attribution.
func Duration(kind CommandKind, t Timing) float64 {
	switch kind {
	case CmdActivate:
		return t.TRAS
	case CmdPrecharge:
		return t.TRP
	case CmdRead:
		return t.ReadLatency()
	case CmdWrite:
		return t.WriteLatency()
	case CmdAAPCopy, CmdAAP2, CmdAAP3:
		return t.AAP()
	case CmdDPU:
		return t.TCK
	default:
		panic(fmt.Sprintf("dram: unknown command kind %v", kind))
	}
}

// EnergyOf returns one command's dynamic energy in picojoules for a single
// participating sub-array under an energy model. Broadcast commands multiply
// by the sub-array count (see Meter.Record).
func EnergyOf(kind CommandKind, e Energy) float64 {
	switch kind {
	case CmdActivate:
		return e.ActivationEnergy(1)
	case CmdPrecharge:
		return e.EPrecharge
	case CmdRead, CmdWrite:
		return e.ActivationEnergy(1) + e.ERowBuffer
	case CmdAAPCopy, CmdAAP2, CmdAAP3:
		return e.AAPEnergy(kind.SourceRows(), 1, kind.computes())
	case CmdDPU:
		return e.EDPUOp
	default:
		panic(fmt.Sprintf("dram: unknown command kind %v", kind))
	}
}

// KindTable holds one price per command kind, indexed by CommandKind.
type KindTable [NumCommandKinds]float64

// DurationTable tabulates Duration over every command kind, for consumers
// that price one command per recorded stream entry.
func DurationTable(t Timing) KindTable {
	var tab KindTable
	for k := range tab {
		tab[k] = Duration(CommandKind(k), t)
	}
	return tab
}

// EnergyTable tabulates EnergyOf over every command kind.
func EnergyTable(e Energy) KindTable {
	var tab KindTable
	for k := range tab {
		tab[k] = EnergyOf(CommandKind(k), e)
	}
	return tab
}

// Meter accumulates latency and energy for the commands of a detached
// sub-array — one no platform has attached to a command stream, as in the
// kernel micro-benchmarks and the sub-array's own tests; a platform's
// sub-arrays record into its exec.Stream instead. Parallel sub-arrays
// executing the same broadcast command account the energy of every
// participating sub-array but the latency only once.
//
// A Meter has a single writer and takes no lock.
type Meter struct {
	// dur and pj are Duration and EnergyOf tabulated once for the meter's
	// models: Record prices a command with two loads.
	dur, pj KindTable

	// Counts holds the issued command slots per kind, indexed by CommandKind.
	Counts [NumCommandKinds]int64
	// LatencyNS is the accumulated critical-path latency in nanoseconds.
	LatencyNS float64
	// EnergyPJ is the accumulated dynamic energy in picojoules.
	EnergyPJ float64
}

// NewMeter returns a Meter using the given timing and energy models.
func NewMeter(t Timing, e Energy) *Meter {
	return &Meter{dur: DurationTable(t), pj: EnergyTable(e)}
}

// Record accounts one command broadcast to parallelSubarrays sub-arrays.
// Latency accrues once (the sub-arrays operate in lock step); energy accrues
// per participating sub-array.
func (m *Meter) Record(kind CommandKind, parallelSubarrays int) {
	if parallelSubarrays <= 0 {
		parallelSubarrays = 1
	}
	if kind < 0 || int(kind) >= NumCommandKinds {
		panic(fmt.Sprintf("dram: unknown command kind %v", kind))
	}
	m.Counts[kind]++
	m.LatencyNS += m.dur[kind]
	m.EnergyPJ += float64(parallelSubarrays) * m.pj[kind]
}
