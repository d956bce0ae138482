// Package perfmodel converts algorithm-level operation counts into platform
// latency, power, memory-bottleneck and utilisation estimates — the role the
// paper's in-house Matlab behavioural simulator plays. It implements the
// models behind Fig. 9 (execution time and power), Fig. 10 (parallelism
// trade-off), Fig. 11 (MBR and RUR), and the §II-B area-overhead estimate.
package perfmodel

import (
	"fmt"

	"pimassembler/internal/assembly"
	"pimassembler/internal/mapping"
	"pimassembler/internal/platforms"
)

// DispatchBusGBs is the internal bus bandwidth available for streaming short
// reads out of the sequence bank and routing k-mers to their home
// sub-arrays — the only data movement an in-situ platform performs.
const DispatchBusGBs = 20.0

// StageCost is the latency/energy breakdown of one pipeline run.
type StageCost struct {
	Platform string
	K        int

	HashmapS  float64
	DeBruijnS float64
	TraverseS float64

	// TransferS is the time attributable to on-/off-chip data movement
	// (subset of the stage times above), feeding the MBR model.
	TransferS float64

	PowerW float64
}

// TotalS returns the summed stage time.
func (c StageCost) TotalS() float64 { return c.HashmapS + c.DeBruijnS + c.TraverseS }

// EnergyJ returns the total energy.
func (c StageCost) EnergyJ() float64 { return c.TotalS() * c.PowerW }

// String implements fmt.Stringer.
func (c StageCost) String() string {
	return fmt.Sprintf("%-6s k=%-2d hashmap=%ss debruijn=%ss traverse=%ss total=%ss power=%5.1fW",
		c.Platform, c.K, secs(c.HashmapS), secs(c.DeBruijnS), secs(c.TraverseS), secs(c.TotalS()), c.PowerW)
}

// secs renders a duration in seconds with sensible precision across the
// paper-scale (hundreds of seconds) and test-scale (microseconds) regimes.
func secs(s float64) string {
	if s >= 1 {
		return fmt.Sprintf("%7.1f", s)
	}
	return fmt.Sprintf("%7.2g", s)
}

// kmerDispatchBytes is the bus traffic of routing one k-mer to its home
// sub-array: the packed key plus command/address overhead.
func kmerDispatchBytes(k int) float64 { return float64(2*k)/8 + 8 }

// AssemblyCost prices one assembly workload on a platform.
func AssemblyCost(s platforms.Spec, c assembly.OpCounts) StageCost {
	if err := c.Validate(); err != nil {
		panic(err)
	}
	switch s.Kind {
	case platforms.KindInSitu:
		return inSituCost(s, c)
	case platforms.KindBandwidth:
		return bandwidthCost(s, c)
	default:
		panic(fmt.Sprintf("perfmodel: unknown kind %v", s.Kind))
	}
}

// inSituCost models a processing-in-DRAM platform. Hashmap and deBruijn
// work is row-parallel across DispatchParallel sub-arrays; the Euler walk is
// a sequential dependence chain priced at TraverseStepAAPs per edge. Data
// movement is the k-mer dispatch stream over the internal bus.
func inSituCost(s platforms.Spec, c assembly.OpCounts) StageCost {
	aap := platforms.AAPLatencyNS() * 1e-9

	aapsPerAdd := HashmapAAPsPerAdd(s, c.CounterBits, c.AvgProbes)
	hashCompute := c.TotalKmers * aapsPerAdd * aap / s.DispatchParallel
	dispatch := c.TotalKmers * kmerDispatchBytes(c.K) / (DispatchBusGBs * 1e9)
	hash := hashCompute + dispatch

	// DeBruijn: MEM_insert-dominated edge emission, row-parallel, plus the
	// edge dispatch stream.
	dbCompute := c.Edges * s.DeBruijnAAPsPerEdge * aap / s.DispatchParallel
	dbDispatch := c.Edges * (2 * kmerDispatchBytes(c.K-1)) / (DispatchBusGBs * 1e9)
	db := dbCompute + dbDispatch

	// Traverse: degree reduction is row-parallel (2 directions ×
	// edges/256-lane batches × DegreeBits-bit adds); the walk itself is a
	// sequential chain.
	lanes := 256.0
	degreeAAPs := 2 * (c.Edges / lanes) * (float64(c.DegreeBits)*s.AddCyclesPerBit + 20)
	degree := degreeAAPs * aap / s.DispatchParallel
	walk := c.Edges * s.TraverseStepAAPs * aap
	trav := degree + walk

	// Baseline designs stall additionally on row initialisation; charge it
	// proportionally on the compute stages (shares computed before any
	// stage is inflated).
	stall := s.InitStallFraction * (hash + db + trav)
	hs, ds, ts := hashShare(hash, db, trav), hashShare(db, hash, trav), hashShare(trav, hash, db)
	hash += stall * hs
	db += stall * ds
	trav += stall * ts

	total := hash + db + trav
	power := s.IdlePowerW + s.DispatchParallel*platforms.EnergyPerAAPpJ*s.EnergyScale*1e-12/aap
	return StageCost{
		Platform:  s.Name,
		K:         c.K,
		HashmapS:  hash,
		DeBruijnS: db,
		TraverseS: trav,
		TransferS: dispatch + dbDispatch + s.InitStallFraction*total,
		PowerW:    power,
	}
}

// HashmapAAPsPerAdd is the per-Add command-slot formula of the in-situ
// hashmap model: one temp-row write, probes × (staged compare + DPU match),
// one one-hot write, and the bit-serial counter increment. The functional
// simulator is held to this same formula (cross-tier validation in
// crosscheck_test.go), with counterBits set to the functional layout's
// width.
func HashmapAAPsPerAdd(s platforms.Spec, counterBits int, avgProbes float64) float64 {
	return 1 + avgProbes*(s.XNORCycles+0.2) + 1 + float64(counterBits)*s.IncCyclesPerBit
}

// hashShare apportions a stall across stages proportionally.
func hashShare(x, a, b float64) float64 {
	t := x + a + b
	if t == 0 {
		return 0
	}
	return x / t
}

// bandwidthCost models a von-Neumann platform: every stage is priced as
// traffic over the appropriate effective bandwidth.
func bandwidthCost(s platforms.Spec, c assembly.OpCounts) StageCost {
	randBW := s.RandBandwidthGBs * 1e9

	// Hashmap: each Add streams the k-mer and performs probe-dependent
	// random accesses into the table (key compare + counter update lines).
	hashBytesPerAdd := 58 + 18*float64(c.K)
	hash := c.TotalKmers * hashBytesPerAdd * c.AvgProbes / 2 / randBW

	// DeBruijn: GPU-Euler-style construction revisits every k-mer instance
	// with atomics/scatter passes (random-access bound) plus node/edge
	// insertion traffic.
	db := c.TotalKmers*96/randBW + c.Edges*64/randBW

	// Traverse: latency-bound pointer chasing with partial cache reuse.
	const traverseNSPerEdge = 180.0
	trav := c.Edges * traverseNSPerEdge * 1e-9

	total := hash + db + trav
	// Memory-stall share rises with k (larger keys, more lines per probe).
	stallFrac := 0.50 + 0.00625*float64(c.K)
	return StageCost{
		Platform:  s.Name,
		K:         c.K,
		HashmapS:  hash,
		DeBruijnS: db,
		TraverseS: trav,
		TransferS: stallFrac * total,
		PowerW:    s.StagePowerW,
	}
}

// CostsForK prices every platform in specs on the paper-scale workload.
func CostsForK(specs []platforms.Spec, counts assembly.OpCounts) []StageCost {
	out := make([]StageCost, 0, len(specs))
	for _, s := range specs {
		out = append(out, AssemblyCost(s, counts))
	}
	return out
}

// PdPoint is one point of the Fig. 10 power/delay trade-off.
type PdPoint struct {
	Pd     int
	K      int
	DelayS float64
	PowerW float64
}

// EnergyJ returns the run energy (J).
func (p PdPoint) EnergyJ() float64 { return p.PowerW * p.DelayS }

// PdTradeoff evaluates PIM-Assembler at parallelism degrees pds: replicated
// sub-array groups split the workload (including per-component traversal
// walks) with an Amdahl dispatch penalty, while dynamic power grows with the
// replica count and static power is shared.
func PdTradeoff(counts assembly.OpCounts, pds []int) []PdPoint {
	spec := platforms.PIMAssembler()
	base := AssemblyCost(spec, counts)
	dynamic := base.PowerW - spec.IdlePowerW
	out := make([]PdPoint, 0, len(pds))
	for _, pd := range pds {
		r := mapping.DefaultReplication(pd)
		delay := base.TotalS() / r.Speedup()
		power := spec.IdlePowerW + dynamic*r.PowerFactor()
		out = append(out, PdPoint{Pd: pd, K: counts.K, DelayS: delay, PowerW: power})
	}
	return out
}

// OptimalPd returns the Pd with the minimum run energy (power × delay) —
// the efficiency criterion under which the paper determines "the optimum
// performance of PIM-Assembler, where Pd ≈ 2".
func OptimalPd(points []PdPoint) int {
	best, bestE := 0, 0.0
	for i, p := range points {
		if i == 0 || p.EnergyJ() < bestE {
			best, bestE = p.Pd, p.EnergyJ()
		}
	}
	return best
}
