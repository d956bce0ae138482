package mapping

import (
	"fmt"
	"math"
)

// Replication models the parallelism-degree knob of the Fig. 10 trade-off
// study: Pd replicated sub-array groups process independent work slices.
type Replication struct {
	Pd int
	// SerialFraction is the fraction of stage work that does not scale with
	// Pd (controller dispatch, result merging) — the Amdahl term that makes
	// Pd ≈ 2 the paper's optimum once the power cost is charged.
	SerialFraction float64
	// PowerExponent shapes the replication's dynamic-power growth:
	// Pdyn(Pd) = Pdyn(1) · Pd^PowerExponent. Slightly below 1.0 because the
	// replicas share the controller, command distribution, and background
	// refresh.
	PowerExponent float64
}

// DefaultReplication returns the calibrated Fig. 10 model.
func DefaultReplication(pd int) Replication {
	if pd <= 0 {
		panic(fmt.Sprintf("mapping: non-positive parallelism degree %d", pd))
	}
	return Replication{Pd: pd, SerialFraction: 0.08, PowerExponent: 0.9}
}

// Speedup returns the delay reduction factor at this Pd:
// Pd / (1 + SerialFraction·(Pd-1)).
func (r Replication) Speedup() float64 {
	return float64(r.Pd) / (1 + r.SerialFraction*float64(r.Pd-1))
}

// PowerFactor returns the power multiplier at this Pd:
// Pd^PowerExponent.
func (r Replication) PowerFactor() float64 {
	return math.Pow(float64(r.Pd), r.PowerExponent)
}
