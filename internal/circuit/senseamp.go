package circuit

import "fmt"

// Mode enumerates the operating modes of the reconfigurable sense amplifier
// (Fig. 2a control table).
type Mode int

const (
	// ModeMemory is the normal DRAM write/read sense operation.
	ModeMemory Mode = iota
	// ModeXNOR performs single-cycle XNOR2/XOR2 between two activated rows.
	ModeXNOR
	// ModeCarry performs Ambit-style triple-row-activation majority,
	// latching the carry in the SA's D-latch.
	ModeCarry
	// ModeSum produces Sum = XOR(XOR(a, b), latched carry) via the add-on
	// XOR gate with the latch enabled.
	ModeSum
)

var modeNames = [...]string{
	ModeMemory: "W/R",
	ModeXNOR:   "XNOR2",
	ModeCarry:  "Carry",
	ModeSum:    "Sum",
}

// String implements fmt.Stringer.
func (m Mode) String() string {
	if m < 0 || int(m) >= len(modeNames) {
		return fmt.Sprintf("Mode(%d)", int(m))
	}
	return modeNames[m]
}

// EnableSet is the five enable signals controlling the add-on circuit, plus
// the latch enable, matching the control-signal table of Fig. 2a. Signal
// order in the paper's "01110" shorthand is (Enm, Enx, Enmux, Enc1, Enc2).
type EnableSet struct {
	Enm     bool // connects the normal back-to-back inverter pair
	Enx     bool // connects the shifted-VTC detector inverters
	Enmux   bool // drives the BL/BLbar from the 4:1 MUX output
	Enc1    bool // MUX selector bit 1
	Enc2    bool // MUX selector bit 2
	LatchEn bool // opens the D-latch to capture carry
}

// Enables returns the enable-signal configuration for a mode, following the
// Fig. 2a table: W/R = 110xx, XNOR2 = 01110, Carry (addition) = 11100 with
// latch, Sum = 11011 with latch.
func Enables(m Mode) EnableSet {
	switch m {
	case ModeMemory:
		return EnableSet{Enm: true, Enx: true}
	case ModeXNOR:
		return EnableSet{Enx: true, Enmux: true, Enc1: true}
	case ModeCarry:
		return EnableSet{Enm: true, Enx: true, Enmux: true, LatchEn: true}
	case ModeSum:
		return EnableSet{Enm: true, Enx: true, Enc1: true, Enc2: true, LatchEn: true}
	default:
		panic(fmt.Sprintf("circuit: unknown mode %v", m))
	}
}

// SenseAmp is a functional model of the reconfigurable sense amplifier: the
// regular cross-coupled pair plus the add-on circuit (two shifted-VTC
// inverters, an AND gate with one inverted input forming XOR2, a D-latch,
// and the 4:1 MUX).
type SenseAmp struct {
	Normal Inverter // regular SA pair (majority threshold)
	LowVs  Inverter // NOR2 detector
	HighVs Inverter // NAND2 detector
	Cells  CellParams

	latch bool // D-latch state (carry)
}

// NewSenseAmp returns a sense amplifier with nominal 45 nm parameters.
func NewSenseAmp() *SenseAmp {
	return &SenseAmp{
		Normal: NormalInverter(),
		LowVs:  LowVsInverter(),
		HighVs: HighVsInverter(),
		Cells:  DefaultCellParams(),
	}
}

// SetLatch loads the D-latch, e.g. to clear carry before an addition.
func (sa *SenseAmp) SetLatch(v bool) { sa.latch = v }

// DetectorOutputs evaluates the two threshold detectors and the XOR gate for
// a detector input voltage vin (ideally n·Vdd/2 for n of two cells storing
// '1'). It returns (out1, out2, out3) = (NOR2, NAND2, XOR2) per Fig. 2b:
// the low-Vs inverter outputs '1' only below Vdd/4 (NOR), the high-Vs
// inverter outputs '1' below 3·Vdd/4 (NAND), and the AND gate with the NOR
// input inverted yields XOR.
func (sa *SenseAmp) DetectorOutputs(vin float64) (nor, nand, xor bool) {
	nor = sa.LowVs.Logic(vin)
	nand = sa.HighVs.Logic(vin)
	xor = nand && !nor
	return nor, nand, xor
}

// SenseXNOR performs the single-cycle two-row-activation XNOR2 between
// stored bits di and dj. It returns the value driven onto BL (XNOR2) and
// BLbar (XOR2). The detector input follows the idealised capacitive divider
// Vi = n·Vdd/C with C = 2 unit capacitors.
func (sa *SenseAmp) SenseXNOR(di, dj bool) (xnor, xor bool) {
	n := b2i(di) + b2i(dj)
	_, _, x := sa.DetectorOutputs(IdealShare(n, 2))
	return !x, x
}

// SenseCarry performs the triple-row-activation majority of (a, b, cin) and
// latches the result. The regular SA pair thresholds the three-cell charge
// share at Vdd/2, which resolves MAJ3. The latched carry is returned.
func (sa *SenseAmp) SenseCarry(a, b, cin bool) bool {
	n := b2i(a) + b2i(b) + b2i(cin)
	vin := IdealShare(n, 3)
	carry := !sa.Normal.Logic(vin) // inverter output low ⇒ input above Vdd/2 ⇒ majority '1'
	sa.latch = carry
	return carry
}

// SenseSum produces Sum = a XOR b XOR latchedCarry using the add-on XOR gate
// fed by the two-row XOR2 result and the previously latched carry. The
// carry latch is left untouched: in the paper's two-cycle addition the carry
// for the *next* bit position was latched by the preceding SenseCarry.
func (sa *SenseAmp) SenseSum(a, b bool) bool {
	n := b2i(a) + b2i(b)
	_, _, x := sa.DetectorOutputs(IdealShare(n, 2))
	return x != sa.latch
}

// SenseMemory performs the normal DRAM sense: with a single activated cell
// the bit-line deviates from Vdd/2 towards the stored value and the regular
// pair regenerates it to full swing.
func (sa *SenseAmp) SenseMemory(stored bool) bool {
	v := Vdd/2 + sa.Cells.ShareDeviation(b2i(stored), 1)
	return !sa.Normal.Logic(v)
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
