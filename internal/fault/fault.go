// Package fault injects process-variation bit errors into the functional
// simulator, closing the loop between the circuit-level Monte-Carlo study
// (Table I) and the application: the per-mechanism test-error rates become
// per-bit flip probabilities on the sub-array's compute results, letting
// the repository measure what a given variation corner does to hash-table
// integrity and assembled contigs.
package fault

import (
	"fmt"

	"pimassembler/internal/bitvec"
	"pimassembler/internal/circuit"
	"pimassembler/internal/core"
	"pimassembler/internal/dram"
	"pimassembler/internal/stats"
	"pimassembler/internal/subarray"
)

// Rates are per-bit error probabilities for the two activation mechanisms.
type Rates struct {
	// TwoRow is the flip probability per result bit of a two-row
	// activation (XNOR/XOR/Sum).
	TwoRow float64
	// TRA is the flip probability per result bit of a triple-row
	// activation (carry/majority).
	TRA float64
}

// Validate checks the probabilities.
func (r Rates) Validate() error {
	if r.TwoRow < 0 || r.TwoRow > 1 || r.TRA < 0 || r.TRA > 1 {
		return fmt.Errorf("fault: probabilities outside [0,1]: %+v", r)
	}
	return nil
}

// RatesFromVariation derives per-bit error rates from the circuit-level
// Monte-Carlo model at a variation corner: the Table I test-error
// percentages are per-evaluation error probabilities, which is exactly the
// per-bit rate of the row-wide operation (each bit-line evaluates
// independently).
func RatesFromVariation(variation float64, trials int, seed uint64) Rates {
	m := circuit.DefaultVariationModel()
	res := m.MonteCarlo(trials, variation, stats.NewRNG(seed))
	return Rates{
		TwoRow: res.TwoRowErrPct / 100,
		TRA:    res.TRAErrPct / 100,
	}
}

// Injector corrupts compute results at the configured rates and counts what
// it did. Attach one injector per sub-array (it is not safe for concurrent
// use; derive per-sub-array RNGs with stats.RNG.Split).
type Injector struct {
	rates Rates
	rng   *stats.RNG

	// FlippedBits counts injected bit errors.
	FlippedBits int64
	// AffectedOps counts compute operations that had at least one flip.
	AffectedOps int64
	// TotalOps counts observed compute operations.
	TotalOps int64
}

// NewInjector builds an injector.
func NewInjector(rates Rates, rng *stats.RNG) *Injector {
	if err := rates.Validate(); err != nil {
		panic(err)
	}
	return &Injector{rates: rates, rng: rng}
}

// Hook returns the subarray.FaultHook implementing the injection.
func (in *Injector) Hook() subarray.FaultHook {
	return func(kind dram.CommandKind, result *bitvec.Vector) {
		rate := in.rates.TwoRow
		if kind == dram.CmdAAP3 {
			rate = in.rates.TRA
		}
		in.TotalOps++
		if rate <= 0 {
			return
		}
		flipped := false
		for i := 0; i < result.Len(); i++ {
			if in.rng.Float64() < rate {
				result.Set(i, !result.Get(i))
				in.FlippedBits++
				flipped = true
			}
		}
		if flipped {
			in.AffectedOps++
		}
	}
}

// AttachPlatform installs the injector on every sub-array of a platform,
// present and future.
func (in *Injector) AttachPlatform(p *core.Platform) {
	p.SetFaultHook(in.Hook())
}

// String summarises the injector's activity.
func (in *Injector) String() string {
	return fmt.Sprintf("fault.Injector{rates=%.2g/%.2g, ops=%d, affected=%d, bits=%d}",
		in.rates.TwoRow, in.rates.TRA, in.TotalOps, in.AffectedOps, in.FlippedBits)
}
