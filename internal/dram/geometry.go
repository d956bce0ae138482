// Package dram models the physical organisation, timing, and energy of the
// DRAM device that PIM-Assembler is built on. It provides the vocabulary the
// rest of the repository shares: the chip/bank/MAT/sub-array hierarchy from
// Fig. 1 of the paper, JEDEC-style timing parameters, per-command energy, and
// the ACTIVATE/PRECHARGE-derived command set (including the multi-row AAP
// primitives) with cycle and energy accounting.
package dram

import "fmt"

// Geometry describes the hierarchical organisation of a PIM-Assembler memory
// group. The defaults mirror the paper's §IV setup: 1024×256 sub-arrays,
// 4×4 MATs per bank, 16×16 banks per memory group. Sub-array row space is
// split into 1016 data rows and 8 compute rows (x1..x8) per Fig. 1b.
type Geometry struct {
	// RowsPerSubarray is the total number of word-lines per sub-array
	// (data rows + compute rows).
	RowsPerSubarray int
	// ColsPerSubarray is the number of bit-lines (columns) per sub-array;
	// one row therefore stores ColsPerSubarray bits.
	ColsPerSubarray int
	// ComputeRows is the number of rows wired to the modified row decoder
	// (MRD) for multi-row activation (x1..x8 in the paper).
	ComputeRows int
	// ReservedRows is the number of data rows set aside per sub-array for
	// carry/sum scratch space ("Resv." in Fig. 8).
	ReservedRows int
	// SubarraysPerMAT is how many computational sub-arrays share one global
	// row buffer within a MAT.
	SubarraysPerMAT int
	// MATRows and MATCols give the MAT grid per bank (4×4 in the paper).
	MATRows, MATCols int
	// BankRows and BankCols give the bank grid per memory group (16×16).
	BankRows, BankCols int
	// ActiveBanks is how many banks may compute concurrently. The raw
	// throughput study in §II-B uses 8 banks.
	ActiveBanks int
}

// Default returns the paper's §IV memory-group configuration.
func Default() Geometry {
	return Geometry{
		RowsPerSubarray: 1024,
		ColsPerSubarray: 256,
		ComputeRows:     8,
		ReservedRows:    4,
		SubarraysPerMAT: 8,
		MATRows:         4,
		MATCols:         4,
		BankRows:        16,
		BankCols:        16,
		ActiveBanks:     8,
	}
}

// ThroughputConfig returns the 8-bank raw-throughput configuration used for
// the Fig. 3b bulk bit-wise comparison ("8 banks with 1024×256 computational
// sub-arrays"). All MATs inside an active bank compute concurrently since
// in-situ operations never leave the local bit-lines.
func ThroughputConfig() Geometry {
	g := Default()
	g.ActiveBanks = 8
	return g
}

// Validate checks internal consistency.
func (g Geometry) Validate() error {
	switch {
	case g.RowsPerSubarray <= 0 || g.ColsPerSubarray <= 0:
		return fmt.Errorf("dram: sub-array dimensions must be positive, got %dx%d",
			g.RowsPerSubarray, g.ColsPerSubarray)
	case g.ComputeRows <= 0 || g.ComputeRows >= g.RowsPerSubarray:
		return fmt.Errorf("dram: compute rows %d out of range for %d total rows",
			g.ComputeRows, g.RowsPerSubarray)
	case g.ReservedRows < 0 || g.ReservedRows >= g.RowsPerSubarray-g.ComputeRows:
		return fmt.Errorf("dram: reserved rows %d out of range", g.ReservedRows)
	case g.SubarraysPerMAT <= 0 || g.MATRows <= 0 || g.MATCols <= 0:
		return fmt.Errorf("dram: MAT organisation must be positive")
	case g.BankRows <= 0 || g.BankCols <= 0:
		return fmt.Errorf("dram: bank grid must be positive")
	case g.ActiveBanks <= 0 || g.ActiveBanks > g.BankRows*g.BankCols:
		return fmt.Errorf("dram: active banks %d exceeds %d banks",
			g.ActiveBanks, g.BankRows*g.BankCols)
	}
	return nil
}

// DataRows returns the number of regular (non-compute) rows per sub-array,
// including the reserved scratch region.
func (g Geometry) DataRows() int { return g.RowsPerSubarray - g.ComputeRows }

// Banks returns the number of banks per memory group.
func (g Geometry) Banks() int { return g.BankRows * g.BankCols }

// MATsPerBank returns the MAT count per bank.
func (g Geometry) MATsPerBank() int { return g.MATRows * g.MATCols }

// SubarraysPerBank returns the computational sub-array count per bank.
func (g Geometry) SubarraysPerBank() int { return g.MATsPerBank() * g.SubarraysPerMAT }

// TotalSubarrays returns the sub-array count of the whole memory group.
func (g Geometry) TotalSubarrays() int { return g.Banks() * g.SubarraysPerBank() }

// ActiveSubarrays returns how many sub-arrays can execute an in-memory
// operation in the same cycle: every sub-array of every active bank, since
// in-situ computation stays on local bit-lines and needs no shared bus.
func (g Geometry) ActiveSubarrays() int { return g.ActiveBanks * g.SubarraysPerBank() }

// RowBits returns the number of bits processed by one row-wide operation in
// a single sub-array.
func (g Geometry) RowBits() int { return g.ColsPerSubarray }

// ParallelBits returns the number of bit-lanes the memory group operates on
// per in-memory compute cycle.
func (g Geometry) ParallelBits() int { return g.ActiveSubarrays() * g.RowBits() }

// String implements fmt.Stringer.
func (g Geometry) String() string {
	return fmt.Sprintf("dram.Geometry{%dx%d subarrays, %d/MAT, %dx%d MATs, %dx%d banks, %d active}",
		g.RowsPerSubarray, g.ColsPerSubarray, g.SubarraysPerMAT,
		g.MATRows, g.MATCols, g.BankRows, g.BankCols, g.ActiveBanks)
}
