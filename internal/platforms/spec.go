// Package platforms defines the analytical models of the seven evaluated
// platforms: PIM-Assembler itself plus the paper's baselines — Intel Core-i7
// CPU, NVIDIA GTX 1080Ti GPU, HMC 2.0, Ambit, DRISA-1T1C and DRISA-3T1C.
//
// Two model families cover them:
//
//   - bandwidth-bound (CPU, GPU, HMC): bulk bit-wise throughput is limited
//     by effective memory bandwidth, as the paper observes ("either the
//     external or internal DRAM bandwidth has limited the throughput");
//   - in-situ PIM (P-A, Ambit, DRISA variants): throughput is row-parallel
//     compute bound, parameterised by AAP cycle counts per operation.
//
// Every constant that shapes a figure is in this file with its provenance;
// see DESIGN.md §1 and §4.3.
package platforms

import (
	"fmt"
	"strings"

	"pimassembler/internal/dram"
)

// Kind distinguishes the two model families.
type Kind int

const (
	// KindBandwidth models a von-Neumann platform limited by memory
	// bandwidth.
	KindBandwidth Kind = iota
	// KindInSitu models a processing-in-DRAM platform limited by AAP
	// compute cycles.
	KindInSitu
)

// Spec holds one platform's analytical parameters.
type Spec struct {
	Name string
	Kind Kind

	// --- bandwidth-bound parameters ---

	// SeqBandwidthGBs is the effective sequential/streaming bandwidth in
	// GB/s for bulk bit-wise kernels.
	SeqBandwidthGBs float64
	// RandBandwidthGBs is the effective bandwidth for pointer-chasing /
	// hash-probe access patterns (GUPS-like), in GB/s.
	RandBandwidthGBs float64
	// LaunchOverheadNS is the fixed per-operation overhead (kernel launch,
	// loop setup).
	LaunchOverheadNS float64

	// --- in-situ PIM parameters (AAP cycle counts include operand
	//     staging/copy and, for the baselines, their row-initialisation) ---

	// XNORCycles is the AAP count of one row-wide XNOR.
	XNORCycles float64
	// AddCyclesPerBit is the AAP count per bit position of a row-parallel
	// full add.
	AddCyclesPerBit float64
	// IncCyclesPerBit is the AAP count per bit position of the hash-counter
	// increment (PIM_Add(k_mer, 1)).
	IncCyclesPerBit float64
	// TraverseStepAAPs is the AAP count of one sequential Euler-walk step
	// (latency-bound; no row parallelism helps).
	TraverseStepAAPs float64
	// DeBruijnAAPsPerEdge is the AAP count of inserting one node/edge pair
	// (MEM_insert-dominated).
	DeBruijnAAPsPerEdge float64
	// DispatchParallel is the number of sub-arrays the controller keeps
	// concurrently busy (command-issue constrained; all in-situ designs
	// share the controller architecture, so the value is common).
	DispatchParallel float64
	// EnergyScale multiplies PIM-Assembler's per-AAP energy: >1 for the
	// baselines due to triple/quintuple-row activation, row initialisation,
	// and (DRISA) per-cell compute circuitry.
	EnergyScale float64
	// InitStallFraction is the fraction of run time a baseline spends on
	// row initialisation and extra operand copies that stall the compute
	// path (feeds the Fig. 11 MBR model).
	InitStallFraction float64

	// --- shared parameters ---

	// SchedulerEfficiency is the achievable fraction of post-stall peak
	// throughput (feeds the Fig. 11 RUR model).
	SchedulerEfficiency float64
	// StagePowerW is the platform's typical power draw while running the
	// genome pipeline, before the Pd scaling of Fig. 10 (in-situ platforms
	// compute power from energy instead; this field covers CPU/GPU/HMC).
	StagePowerW float64
	// IdlePowerW is the background/static power.
	IdlePowerW float64
}

// Geometry shared by all in-situ platforms for fairness, per §II-B: "an
// identical physical memory configuration is also considered".
func PIMGeometry() dram.Geometry { return dram.ThroughputConfig() }

// AAPLatencyNS returns the common AAP latency from the DDR3-1600 timing.
func AAPLatencyNS() float64 { return dram.DefaultTiming().AAP() }

// EnergyPerAAPpJ is PIM-Assembler's per-sub-array AAP energy used by the
// analytical power model: 580 pJ covering array core, command distribution,
// global word-line drivers and controller share (the functional meter in
// internal/dram counts the array core alone).
const EnergyPerAAPpJ = 580.0

// PIMAssembler returns the paper's platform: single-cycle two-row XNOR
// (3 AAPs with RowClone staging), 2-cycle/bit addition (6 with staging),
// 7-AAP/bit counter increment (5 copies + XOR + TRA-AND).
func PIMAssembler() Spec {
	return Spec{
		Name:                "P-A",
		Kind:                KindInSitu,
		XNORCycles:          3,
		AddCyclesPerBit:     6,
		IncCyclesPerBit:     7,
		TraverseStepAAPs:    1,
		DeBruijnAAPsPerEdge: 14,
		DispatchParallel:    5120,
		EnergyScale:         1.0,
		InitStallFraction:   0.0,
		SchedulerEfficiency: 0.72,
		IdlePowerW:          3.2,
	}
}

// Ambit: X(N)OR costs 7 memory cycles (paper §I citing [5]) including its
// control-row initialisation; additions are majority-based with dual-contact
// cells; every op triple-row-activates, raising energy ≈3×.
func Ambit() Spec {
	return Spec{
		Name:                "Ambit",
		Kind:                KindInSitu,
		XNORCycles:          7,
		AddCyclesPerBit:     10,
		IncCyclesPerBit:     14,
		TraverseStepAAPs:    4,
		DeBruijnAAPsPerEdge: 16,
		DispatchParallel:    5120,
		EnergyScale:         2.92,
		InitStallFraction:   0.20,
		SchedulerEfficiency: 0.62,
		IdlePowerW:          3.2,
	}
}

// DRISA1T1C (D1): NOR-based 1T1C computing; good raw logic throughput
// (6-cycle XNOR) but heavy copy traffic for arithmetic since every
// intermediate migrates through compute rows.
func DRISA1T1C() Spec {
	return Spec{
		Name:                "D1",
		Kind:                KindInSitu,
		XNORCycles:          6,
		AddCyclesPerBit:     11,
		IncCyclesPerBit:     12,
		TraverseStepAAPs:    4,
		DeBruijnAAPsPerEdge: 16,
		DispatchParallel:    5120,
		EnergyScale:         3.46,
		InitStallFraction:   0.25,
		SchedulerEfficiency: 0.64,
		IdlePowerW:          3.2,
	}
}

// DRISA3T1C (D3): 3T1C cells with in-cell AND + shift; slowest bulk logic
// (11-cycle XNOR) but comparatively efficient arithmetic chains.
func DRISA3T1C() Spec {
	return Spec{
		Name:                "D3",
		Kind:                KindInSitu,
		XNORCycles:          11,
		AddCyclesPerBit:     13,
		IncCyclesPerBit:     10,
		TraverseStepAAPs:    3.2,
		DeBruijnAAPsPerEdge: 16,
		DispatchParallel:    5120,
		EnergyScale:         2.80,
		InitStallFraction:   0.30,
		SchedulerEfficiency: 0.73,
		IdlePowerW:          3.2,
	}
}

// CPU: Core-i7 (4C/8T) with two 64-bit DDR4-1866/2133 channels (§II-B):
// peak ≈34 GB/s; bulk bit-wise kernels run at the bandwidth roofline.
// Random hash probes achieve ≈2 GB/s of useful traffic (GUPS-like).
func CPU() Spec {
	return Spec{
		Name:                "CPU",
		Kind:                KindBandwidth,
		SeqBandwidthGBs:     34.1,
		RandBandwidthGBs:    2.0,
		LaunchOverheadNS:    5e3,
		SchedulerEfficiency: 0.45,
		StagePowerW:         95,
		IdlePowerW:          25,
	}
}

// GPU: GTX 1080Ti-class Pascal, 3584 CUDA cores @1.5 GHz, 352-bit GDDR5X
// (peak 484 GB/s). Chained bulk bit-wise kernels at 2^27..2^29-bit sizes
// achieve ≈25 % of peak once launch/sync overhead is folded in; hash-probe
// patterns achieve ≈15 GB/s of useful traffic.
func GPU() Spec {
	return Spec{
		Name:                "GPU",
		Kind:                KindBandwidth,
		SeqBandwidthGBs:     120,
		RandBandwidthGBs:    15,
		LaunchOverheadNS:    20e3,
		SchedulerEfficiency: 0.65,
		StagePowerW:         280,
		IdlePowerW:          55,
	}
}

// HMC 2.0: 32 vaults × 10 GB/s (§II-B). Vault-logic bulk ops sustain ≈35 %
// of aggregate internal bandwidth after vault-controller serialisation.
func HMC() Spec {
	return Spec{
		Name:                "HMC",
		Kind:                KindBandwidth,
		SeqBandwidthGBs:     112, // 320 GB/s aggregate × 0.35
		RandBandwidthGBs:    24,
		LaunchOverheadNS:    8e3,
		SchedulerEfficiency: 0.5,
		StagePowerW:         65,
		IdlePowerW:          11,
	}
}

// All returns the seven platforms in the paper's comparison order.
func All() []Spec {
	return []Spec{CPU(), GPU(), HMC(), Ambit(), DRISA1T1C(), DRISA3T1C(), PIMAssembler()}
}

// Names returns the seven platform names in the paper's comparison order.
func Names() []string {
	specs := All()
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.Name
	}
	return out
}

// ByName returns the named spec, matching case-insensitively; the
// unknown-name error lists every valid platform.
func ByName(name string) (Spec, error) {
	for _, s := range All() {
		if strings.EqualFold(s.Name, name) {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("platforms: unknown platform %q (valid: %s)",
		name, strings.Join(Names(), ", "))
}
