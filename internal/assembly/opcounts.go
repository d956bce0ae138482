package assembly

import (
	"fmt"
	"math"

	"pimassembler/internal/genome"
)

// OpCounts is the algorithm-level operation profile of one assembly
// workload: everything the platform performance models need to price a run
// without executing it. Counts come either from a measured functional run
// (measureCounts) or from the closed-form workload estimates below for the
// paper's full-scale chromosome-14 dataset.
type OpCounts struct {
	K             int
	ReadCount     int64
	ReadLen       int
	TotalKmers    float64 // hash-table Add operations (stage 1)
	DistinctKmers float64 // table entries = graph edges
	AvgProbes     float64 // slot comparisons per Add: designProbes, or the pim backend's measured ratio
	Nodes         float64 // graph nodes ((k-1)-mers)
	Edges         float64 // graph edges (distinct k-mers)
	CounterBits   int     // frequency counter width
	DegreeBits    int     // degree counter width
}

// Validate sanity-checks the profile.
func (c OpCounts) Validate() error {
	if c.K <= 0 || c.TotalKmers <= 0 || c.DistinctKmers <= 0 {
		return fmt.Errorf("assembly: degenerate op counts %+v", c)
	}
	if c.AvgProbes < 1 {
		return fmt.Errorf("assembly: probes per op %.2f below 1", c.AvgProbes)
	}
	if c.DistinctKmers > c.TotalKmers {
		return fmt.Errorf("assembly: distinct %.0f exceeds total %.0f", c.DistinctKmers, c.TotalKmers)
	}
	return nil
}

// PaperOpCounts derives the full-scale operation profile for the paper's
// chromosome-14 workload at a given k, using closed-form estimates:
//
//   - total k-mers: reads × (L-k+1);
//   - distinct k-mers: genome positions capped by the 4^k keyspace, scaled
//     by the expected fraction observed at this coverage (≈1 at 53×);
//   - probes per Add: 1/(1-α) for linear probing at load factor α — the
//     hash regions run at ≈0.5 occupancy by construction of the mapping;
//   - nodes: distinct (k-1)-mers ≈ distinct k-mers for k ≫ log₄(genome).
func PaperOpCounts(w genome.Chr14Workload, k int) OpCounts {
	total := float64(w.TotalKmers(k))
	distinct := float64(w.DistinctKmers(k))
	// Fraction of genome k-mers covered at this depth (coupon collector at
	// coverage c: 1 - e^{-c·(L-k+1)/L}).
	cov := w.Coverage() * float64(w.ReadLen-k+1) / float64(w.ReadLen)
	distinct *= 1 - math.Exp(-cov)
	return OpCounts{
		K:             k,
		ReadCount:     w.ReadCount,
		ReadLen:       w.ReadLen,
		TotalKmers:    total,
		DistinctKmers: distinct,
		AvgProbes:     designProbes(),
		Nodes:         distinct, // (k-1)-mers ≈ k-mers at genome scale
		Edges:         distinct,
		CounterBits:   32,
		DegreeBits:    9,
	}
}

// designLoad is the occupancy the mapping builds the hash regions for.
const designLoad = 0.5

// designProbes is the slot comparisons per Add of linear probing at the
// mapping's design load α: 1/(1−α). The software backend's OpCounts and
// PaperOpCounts both take it; a host table's own probes follow its growth
// path, which no PIM hash region shares.
func designProbes() float64 { return 1 / (1 - designLoad) }
