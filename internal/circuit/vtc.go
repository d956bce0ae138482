// Package circuit models the analog behaviour of PIM-Assembler's
// reconfigurable sense amplifier: the shifted-VTC threshold-detector
// inverters, DRAM charge sharing across simultaneously activated rows, the
// enable-signal decode of Fig. 2a, transient waveforms (Fig. 3a), the
// noise-source model of Fig. 4, and the Monte-Carlo process-variation study
// of Table I.
//
// This package replaces the paper's Cadence Spectre + NCSU 45 nm PDK flow
// with a numerical model (see DESIGN.md §1): the experiments only depend on
// where shared bit-line voltages land relative to detector thresholds, and
// on the qualitative shape of the regeneration waveforms, both of which this
// model computes directly.
package circuit

import "math"

// Vdd is the nominal supply voltage of the 45 nm process, in volts.
const Vdd = 1.2

// Inverter models a CMOS inverter by its voltage transfer characteristic.
// Vs is the switching (trip) voltage; Gain is the magnitude of the slope at
// the trip point. The paper uses three flavours (Fig. 2b): a normal-Vs pair
// forming the regular sense amplifier, a low-Vs inverter (high-Vth NMOS,
// low-Vth PMOS) acting as a NOR-style threshold detector at Vdd/4, and a
// high-Vs inverter (low-Vth NMOS, high-Vth PMOS) acting as a NAND-style
// detector at 3·Vdd/4.
type Inverter struct {
	Vs   float64 // switching voltage, volts
	Gain float64 // |dVout/dVin| at Vin = Vs
}

// NormalInverter returns the regular SA inverter (Vs = Vdd/2).
func NormalInverter() Inverter { return Inverter{Vs: Vdd / 2, Gain: 25} }

// LowVsInverter returns the low switching-voltage inverter used as the NOR2
// threshold detector (Vs ≈ Vdd/4).
func LowVsInverter() Inverter { return Inverter{Vs: Vdd / 4, Gain: 25} }

// HighVsInverter returns the high switching-voltage inverter used as the
// NAND2 threshold detector (Vs ≈ 3·Vdd/4).
func HighVsInverter() Inverter { return Inverter{Vs: 3 * Vdd / 4, Gain: 25} }

// Vout evaluates the transfer characteristic at vin. The curve is a smooth
// logistic approximation of a static CMOS inverter VTC: rail-to-rail output
// with a transition of width ~Vdd/Gain centred on Vs.
func (inv Inverter) Vout(vin float64) float64 {
	return Vdd / (1 + math.Exp(inv.Gain/Vdd*4*(vin-inv.Vs)))
}

// Logic thresholds a voltage into a digital level using the inverter as a
// comparator: output is true (logic '1') when the inverter output is above
// Vdd/2, i.e. when vin is below the switching voltage.
func (inv Inverter) Logic(vin float64) bool { return inv.Vout(vin) > Vdd/2 }
