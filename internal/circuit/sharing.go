package circuit

import "fmt"

// CellParams holds the DRAM cell and bit-line capacitances used by the
// charge-sharing model. Nominal values follow the Rambus DRAM power model
// parameters the paper scales from, for a 45 nm device with the short local
// bit-lines of a 1024-row sub-array.
type CellParams struct {
	CCell  float64 // storage capacitor, femtofarads
	CBL    float64 // bit-line parasitic capacitance, femtofarads
	CWBL   float64 // word-line to bit-line coupling capacitance (Fig. 4)
	CCross float64 // bit-line to adjacent bit-line coupling (Fig. 4)
}

// DefaultCellParams returns the nominal 45 nm cell model.
func DefaultCellParams() CellParams {
	return CellParams{
		CCell:  22.0,
		CBL:    85.0,
		CWBL:   0.35,
		CCross: 1.8,
	}
}

// ShareVoltage returns the bit-line voltage after charge sharing between the
// precharged bit-line (Vdd/2) and the given cell voltages, each stored on
// its own capacitor. cellCaps[i] is the (possibly variation-perturbed)
// capacitance of cell i; cellVolts[i] its stored voltage. blCap is the
// bit-line capacitance.
//
// This is the single source of truth for in-memory logic: the ideal
// Vi = n·Vdd/C relation of the paper is the limit of this expression for
// identical unit capacitors dominating the bit-line, and the digital
// fast-path in internal/subarray is property-tested against it.
func ShareVoltage(blCap float64, cellCaps, cellVolts []float64) float64 {
	if len(cellCaps) != len(cellVolts) {
		panic("circuit: cellCaps and cellVolts length mismatch")
	}
	charge := blCap * (Vdd / 2)
	total := blCap
	for i, c := range cellCaps {
		charge += c * cellVolts[i]
		total += c
	}
	return charge / total
}

// ShareDeviation returns the deviation of the shared bit-line voltage from
// the Vdd/2 precharge level when n of k activated cells store '1', using
// nominal parameters. Positive deviation means the SA senses towards '1'.
func (p CellParams) ShareDeviation(n, k int) float64 {
	if n < 0 || k <= 0 || n > k {
		panic(fmt.Sprintf("circuit: invalid n=%d of k=%d cells", n, k))
	}
	caps := make([]float64, k)
	volts := make([]float64, k)
	for i := range caps {
		caps[i] = p.CCell
		if i < n {
			volts[i] = Vdd
		}
	}
	return ShareVoltage(p.CBL, caps, volts) - Vdd/2
}

// IdealShare returns the paper's idealised detector input Vi = n·Vdd/C for
// n of c unit capacitors storing logic '1'. The reconfigurable SA buffers
// the shared charge onto matched unit capacitors feeding the detector
// inverters, which is why the detector sees the full-swing division rather
// than the attenuated bit-line deviation.
func IdealShare(n, c int) float64 {
	if n < 0 || c <= 0 || n > c {
		panic(fmt.Sprintf("circuit: invalid n=%d of c=%d capacitors", n, c))
	}
	return float64(n) * Vdd / float64(c)
}
