// Throughput: the §II-B raw bulk-op study across all seven platforms — the
// data behind Fig. 3b — plus a functional cross-check that the simulated
// sub-arrays really compute what the analytical model prices.
package main

import (
	"fmt"

	"pimassembler/internal/bitvec"
	"pimassembler/internal/core"
	"pimassembler/internal/platforms"
	"pimassembler/internal/stats"
)

func main() {
	fmt.Println("Raw bulk bit-wise throughput (Gbit/s) by operand size:")
	fmt.Printf("%-6s %-5s %12s %12s %12s\n", "plat", "op", "2^27", "2^28", "2^29")
	for _, r := range platforms.Fig3b() {
		fmt.Printf("%-6s %-5s %12.1f %12.1f %12.1f\n",
			r.Platform, r.Op, r.BitsPerS[0]/1e9, r.BitsPerS[1]/1e9, r.BitsPerS[2]/1e9)
	}

	fmt.Println("\nHeadline ratios (P-A vs baselines):")
	paX := throughput("P-A", platforms.OpXNOR)
	for _, base := range []string{"CPU", "GPU", "HMC", "Ambit", "D1", "D3"} {
		fmt.Printf("  vs %-5s XNOR %5.1fx   ADD %5.1fx\n", base,
			paX/throughput(base, platforms.OpXNOR),
			throughput("P-A", platforms.OpAdd)/throughput(base, platforms.OpAdd))
	}

	// Functional cross-check: a (much smaller) bulk XNOR, one row-sized
	// chunk at a time dealt round-robin over the active sub-arrays, each
	// chunk checked against the host's XNOR of the same operands.
	p := core.NewDefaultPlatform()
	row, subs := p.Geometry().RowBits(), p.Geometry().ActiveSubarrays()
	const chunks = 256
	rng := stats.NewRNG(3)
	a, b, got, want := bitvec.New(row), bitvec.New(row), bitvec.New(row), bitvec.New(row)
	for c := 0; c < chunks; c++ {
		for i := 0; i < row; i++ {
			a.Set(i, rng.Float64() < 0.5)
			b.Set(i, rng.Float64() < 0.5)
		}
		s := p.Subarray(c % subs)
		s.Write(0, a)
		s.Write(1, b)
		s.XNOR(0, 1, 2)
		s.ReadInto(2, got)
		want.Xnor(a, b)
		want.Xnor(want, got) // all ones where the sub-array agrees with the host
		if !want.AllOnes() {
			panic(fmt.Sprintf("functional XNOR of chunk %d diverged from the host computation", c))
		}
	}
	sum := p.Summarize()
	fmt.Printf("\nfunctional cross-check: %d-bit XNOR on %d sub-arrays — %d commands, result verified\n",
		chunks*row, sum.Subarrays, sum.Commands)
}

func throughput(name string, op platforms.BulkOp) float64 {
	for _, r := range platforms.Fig3b() {
		if r.Platform == name && r.Op == op {
			return r.MeanThroughput()
		}
	}
	panic("unknown platform " + name)
}
