package circuit

import (
	"fmt"
	"math"
)

// Phase labels the stages of an in-memory operation's transient (Fig. 3a).
type Phase int

const (
	// PhasePrecharge: BL and BLbar held at Vdd/2.
	PhasePrecharge Phase = iota
	// PhaseChargeShare: compute-row word-lines raised, cells share charge
	// with the bit-line.
	PhaseChargeShare
	// PhaseSense: sense amplification; the MUX drives the XOR2/XNOR2
	// result to full swing and the cell capacitors restore accordingly.
	PhaseSense
)

var phaseNames = [...]string{
	PhasePrecharge:   "precharge",
	PhaseChargeShare: "charge-share",
	PhaseSense:       "sense-amplification",
}

// String implements fmt.Stringer.
func (p Phase) String() string {
	if p < 0 || int(p) >= len(phaseNames) {
		return fmt.Sprintf("Phase(%d)", int(p))
	}
	return phaseNames[p]
}

// Sample is one point of a transient waveform.
type Sample struct {
	TimeNS float64
	VBL    float64 // bit-line voltage
	VBLbar float64 // complementary bit-line voltage
	VCell  float64 // compute-row cell capacitor voltage
	Phase  Phase
}

// TransientConfig parameterises the numerical transient simulation.
type TransientConfig struct {
	PrechargeNS   float64 // duration of the precharge hold shown before t0
	ShareNS       float64 // duration of the charge-sharing phase
	SenseNS       float64 // duration of the sense-amplification phase
	StepNS        float64 // integration step
	TauShareNS    float64 // RC constant of cell-to-BL charge sharing
	TauSenseNS    float64 // regeneration time constant of the SA/MUX driver
	TauRestoreNS  float64 // cell restore time constant during sensing
	CellVoltsHigh float64 // stored '1' level (slightly degraded from Vdd)
}

// DefaultTransientConfig returns timing constants representative of a 45 nm
// DRAM sub-array (sub-nanosecond sharing, few-nanosecond regeneration).
func DefaultTransientConfig() TransientConfig {
	return TransientConfig{
		PrechargeNS:   1.0,
		ShareNS:       2.0,
		SenseNS:       5.0,
		StepNS:        0.01,
		TauShareNS:    0.35,
		TauSenseNS:    0.6,
		TauRestoreNS:  1.1,
		CellVoltsHigh: 0.95 * Vdd,
	}
}

// SimulateXNOR2 runs the transient of a two-row-activation XNOR2 between
// stored bits di and dj, mirroring Fig. 3a: the MUX selectors are configured
// to drive BL with the XOR2 result (so BLbar carries XNOR2), and the
// compute-row cell capacitors charge to Vdd when DiDj ∈ {00, 11} or
// discharge to GND when DiDj ∈ {10, 01} during sense amplification.
//
// Note the figure's convention: the *cell* ends at the XNOR2 value (the
// write-back), matching the paper's caption.
func SimulateXNOR2(cfg TransientConfig, di, dj bool) []Sample {
	sa := NewSenseAmp()
	xnor, xor := sa.SenseXNOR(di, dj)

	// Shared bit-line target after the compute rows dump their charge.
	cells := DefaultCellParams()
	n := b2i(di) + b2i(dj)
	vShareTarget := Vdd/2 + cells.ShareDeviation(n, 2)

	// Initial cell voltage: average of the two compute-row cells as an
	// aggregate "cell" trace (the figure plots one representative cell).
	vCellInit := float64(n) / 2 * cfg.CellVoltsHigh

	var out []Sample
	vbl := Vdd / 2
	vblbar := Vdd / 2
	vcell := vCellInit

	record := func(t float64, ph Phase) {
		out = append(out, Sample{TimeNS: t, VBL: vbl, VBLbar: vblbar, VCell: vcell, Phase: ph})
	}

	t := 0.0
	for ; t < cfg.PrechargeNS; t += cfg.StepNS {
		record(t, PhasePrecharge)
	}

	// Charge sharing: BL relaxes exponentially towards the shared level;
	// the cell follows the bit-line (they are connected through the access
	// transistor).
	shareEnd := cfg.PrechargeNS + cfg.ShareNS
	for ; t < shareEnd; t += cfg.StepNS {
		vbl += (vShareTarget - vbl) / cfg.TauShareNS * cfg.StepNS
		vcell += (vbl - vcell) / cfg.TauShareNS * cfg.StepNS
		record(t, PhaseChargeShare)
	}

	// Sense amplification: MUX drives BL to the XOR2 rail and BLbar to the
	// XNOR2 rail; the still-connected cells restore towards the BLbar
	// (write-back) value.
	vblTarget := railVoltage(xor)
	vblbarTarget := railVoltage(xnor)
	senseEnd := shareEnd + cfg.SenseNS
	for ; t < senseEnd; t += cfg.StepNS {
		vbl += (vblTarget - vbl) / cfg.TauSenseNS * cfg.StepNS
		vblbar += (vblbarTarget - vblbar) / cfg.TauSenseNS * cfg.StepNS
		vcell += (vblbar - vcell) / cfg.TauRestoreNS * cfg.StepNS
		record(t, PhaseSense)
	}
	return out
}

func railVoltage(b bool) float64 {
	if b {
		return Vdd
	}
	return 0
}

// FinalCellVoltage returns the last cell-capacitor voltage of a waveform.
func FinalCellVoltage(samples []Sample) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	return samples[len(samples)-1].VCell
}
