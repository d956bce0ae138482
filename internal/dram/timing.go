package dram

import "fmt"

// Timing holds the DRAM timing parameters that bound every in-memory
// operation. Values default to a DDR3-1600-class 45 nm device, the process
// node the paper's circuit work targets and the same baseline Ambit and
// DRISA report against.
//
// All durations are in nanoseconds.
type Timing struct {
	TRCD float64 // ACTIVATE to column command
	TRAS float64 // ACTIVATE to PRECHARGE (row restore complete)
	TRP  float64 // PRECHARGE duration
	TCK  float64 // bus clock period
	TBL  float64 // burst transfer time for one column burst
}

// DefaultTiming returns DDR3-1600 timing (11-11-11 grade).
func DefaultTiming() Timing {
	return Timing{
		TRCD: 13.75,
		TRAS: 35.0,
		TRP:  13.75,
		TCK:  1.25,
		TBL:  5.0,
	}
}

// Validate checks that all parameters are positive and ordered sensibly.
func (t Timing) Validate() error {
	if t.TRCD <= 0 || t.TRAS <= 0 || t.TRP <= 0 || t.TCK <= 0 || t.TBL <= 0 {
		return fmt.Errorf("dram: timing parameters must be positive: %+v", t)
	}
	if t.TRAS < t.TRCD {
		return fmt.Errorf("dram: tRAS (%.2f) must cover tRCD (%.2f)", t.TRAS, t.TRCD)
	}
	return nil
}

// AAP returns the latency of one ACTIVATE-ACTIVATE-PRECHARGE primitive. Per
// RowClone/Ambit, the second ACTIVATE overlaps the tail of the first row
// restore, so an AAP costs roughly 2·tRAS + tRP rather than two full row
// cycles.
func (t Timing) AAP() float64 { return 2*t.TRAS + t.TRP }

// ReadLatency returns the latency of a normal row read (ACTIVATE + column
// access + burst).
func (t Timing) ReadLatency() float64 { return t.TRCD + t.TBL }

// WriteLatency returns the latency of a normal row write.
func (t Timing) WriteLatency() float64 { return t.TRCD + t.TBL }
