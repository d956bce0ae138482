package pimassembler

import (
	"fmt"
	"testing"

	"pimassembler/internal/bitvec"
	"pimassembler/internal/core"
	"pimassembler/internal/dram"
	"pimassembler/internal/exec"
	"pimassembler/internal/kmer"
	"pimassembler/internal/mapping"
	"pimassembler/internal/sched"
	"pimassembler/internal/stats"
	"pimassembler/internal/subarray"
)

// --- Ablation studies (DESIGN.md §6) ---

// BenchmarkAblationTwoRowVsTRAXnor isolates the paper's core claim: XNOR via
// the reconfigurable SA's two-row activation versus emulating it Ambit-style
// with majority/NOT ops (7 AAP cycles). The metric is AAP commands per
// row-wide XNOR.
func BenchmarkAblationTwoRowVsTRAXnor(b *testing.B) {
	run := func(b *testing.B, emulateAmbit bool) {
		s, m := newSubarray()
		rng := stats.NewRNG(7)
		s.Poke(0, randomRow(rng, 256))
		s.Poke(1, randomRow(rng, 256))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if emulateAmbit {
				s.XNOREmulatedTRA(0, 1, 2)
			} else {
				s.XNOR(0, 1, 2)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(commands(m))/float64(b.N), "cmds/op")
		b.ReportMetric(m.LatencyNS/float64(b.N), "modeled-ns/op")
	}
	b.Run("two-row", func(b *testing.B) { run(b, false) })
	b.Run("ambit-TRA", func(b *testing.B) { run(b, true) })
}

// BenchmarkAblationRowCloneStaging separates raw compute cycles from the
// end-to-end cost: the 1-cycle XNOR with operands already in compute rows
// versus the 3-cycle staged form. This is why the paper's raw-cycle gap vs
// Ambit (7x) compresses to 2.3x end to end.
func BenchmarkAblationRowCloneStaging(b *testing.B) {
	b.Run("compute-only", func(b *testing.B) {
		s, m := newSubarray()
		rng := stats.NewRNG(10)
		x1, x2 := s.ComputeRow(0), s.ComputeRow(1)
		s.Poke(x1, randomRow(rng, 256))
		s.Poke(x2, randomRow(rng, 256))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.TwoRowXNOR(x1, x2, 5)
		}
		b.ReportMetric(float64(commands(m))/float64(b.N), "cmds/op")
	})
	b.Run("with-staging", func(b *testing.B) {
		s, m := newSubarray()
		rng := stats.NewRNG(10)
		s.Poke(0, randomRow(rng, 256))
		s.Poke(1, randomRow(rng, 256))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.XNOR(0, 1, 5)
		}
		b.ReportMetric(float64(commands(m))/float64(b.N), "cmds/op")
	})
}

// BenchmarkAblationPartitioning compares the correlated hash placement
// (k-mers spread across sub-arrays, short probe chains) against cramming
// the same k-mer set into a single sub-array region (long probe chains):
// the motivation for Fig. 6's partitioning. Metric: XNOR probes per insert.
func BenchmarkAblationPartitioning(b *testing.B) {
	rng := stats.NewRNG(11)
	kms := make([]kmer.Kmer, 700)
	for i := range kms {
		kms[i] = kmer.Kmer(rng.Uint64()) & kmer.Kmer(kmer.Mask(16))
	}
	for _, cfg := range []struct {
		name string
		subs int
	}{{"correlated-16-subarrays", 16}, {"single-subarray", 1}} {
		b.Run(cfg.name, func(b *testing.B) {
			var probes float64
			for i := 0; i < b.N; i++ {
				p := core.NewDefaultPlatform()
				tbl := core.NewHashTableAt(p, 16, 0, cfg.subs)
				for _, km := range kms {
					if _, err := tbl.Add(km); err != nil {
						b.Fatal(err)
					}
				}
				probes = float64(p.Summarize().Histogram.Totals[dram.CmdDPU]) / float64(len(kms))
			}
			b.ReportMetric(probes, "match-probes/insert")
		})
	}
}

// BenchmarkAblationBitSerialAdd compares the in-memory bit-serial addition
// against the DPU performing the same 256-lane addition word-serially
// through the memory port (read both planes, add in the DPU, write back) —
// the crossover DESIGN.md §6 calls out.
func BenchmarkAblationBitSerialAdd(b *testing.B) {
	for _, m := range []int{8, 32} {
		b.Run(fmt.Sprintf("in-memory/width%d", m), func(b *testing.B) {
			s, meter := newBenchSubarray(m)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.BitSerialAdd(0, 100, 200, 300, m)
			}
			b.ReportMetric(float64(commands(meter))/float64(b.N), "cmds/op")
			b.ReportMetric(meter.LatencyNS/float64(b.N), "modeled-ns/op")
			// In-memory adds run concurrently in every sub-array; the cost
			// is the same whether 1 or 8 sub-arrays of a MAT are adding.
			b.ReportMetric(meter.LatencyNS/float64(b.N), "modeled-ns/8-subarrays")
		})
		b.Run(fmt.Sprintf("dpu-word/width%d", m), func(b *testing.B) {
			s, meter := newBenchSubarray(m)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dpuWordAdd(s, meter, 0, 100, 200, m)
			}
			b.ReportMetric(float64(commands(meter))/float64(b.N), "cmds/op")
			b.ReportMetric(meter.LatencyNS/float64(b.N), "modeled-ns/op")
			// One DPU serves a whole MAT: with all 8 sub-arrays adding, the
			// shared word-serial unit becomes the bottleneck — the
			// crossover that justifies in-memory arithmetic for bulk work.
			b.ReportMetric(8*meter.LatencyNS/float64(b.N), "modeled-ns/8-subarrays")
		})
	}
}

// newSubarray returns a default-geometry sub-array and the meter it records
// its commands on.
func newSubarray() (*subarray.Subarray, *dram.Meter) {
	m := dram.NewMeter(dram.DefaultTiming(), dram.DefaultEnergy())
	return subarray.New(dram.Default(), m), m
}

// commands returns how many command slots m has recorded.
func commands(m *dram.Meter) int64 {
	var n int64
	for _, c := range m.Counts {
		n += c
	}
	return n
}

func newBenchSubarray(m int) (*subarray.Subarray, *dram.Meter) {
	s, meter := newSubarray()
	rng := stats.NewRNG(12)
	for bit := 0; bit < m; bit++ {
		s.Poke(bit, randomRow(rng, 256))
		s.Poke(100+bit, randomRow(rng, 256))
	}
	return s, meter
}

// dpuWordAdd models the non-PIM alternative: stream both bit-plane regions
// through the row buffer to the DPU, add there, and write the result back.
func dpuWordAdd(s *subarray.Subarray, meter *dram.Meter, aBase, bBase, dstBase, m int) {
	cols := dram.Default().ColsPerSubarray
	planesA := make([]*bitvec.Vector, m)
	planesB := make([]*bitvec.Vector, m)
	for i := 0; i < m; i++ {
		planesA[i], planesB[i] = bitvec.New(cols), bitvec.New(cols)
		s.ReadInto(aBase+i, planesA[i])
		s.ReadInto(bBase+i, planesB[i])
	}
	out := make([]*bitvec.Vector, m+1)
	for i := range out {
		out[i] = bitvec.New(cols)
	}
	for lane := 0; lane < cols; lane++ {
		var av, bv uint64
		for i := 0; i < m; i++ {
			if planesA[i].Get(lane) {
				av |= 1 << uint(i)
			}
			if planesB[i].Get(lane) {
				bv |= 1 << uint(i)
			}
		}
		sum := av + bv
		for i := 0; i <= m; i++ {
			out[i].Set(lane, sum&(1<<uint(i)) != 0)
		}
	}
	// The DPU is word-serial: one op per lane, then write back.
	for lane := 0; lane < cols; lane++ {
		meter.Record(dram.CmdDPU, 1)
	}
	for i := 0; i <= m; i++ {
		s.Write(dstBase+i, out[i])
	}
}

// BenchmarkAblationHashCapacity sweeps the sub-array hash-region occupancy
// and reports the probe-chain growth — the load-factor behaviour behind the
// correlated partitioning's sizing.
func BenchmarkAblationHashCapacity(b *testing.B) {
	for _, fill := range []float64{0.25, 0.5, 0.75, 0.9} {
		b.Run(fmt.Sprintf("load%.0f%%", fill*100), func(b *testing.B) {
			var probes float64
			for i := 0; i < b.N; i++ {
				p := core.NewDefaultPlatform()
				tbl := core.NewHashTableAt(p, 16, 0, 1)
				rng := stats.NewRNG(13)
				n := int(fill * float64(mapping.DefaultLayout(p.Geometry()).KmerRows))
				for j := 0; j < n; j++ {
					if _, err := tbl.Add(kmer.Kmer(rng.Uint64()) & kmer.Kmer(kmer.Mask(16))); err != nil {
						b.Fatal(err)
					}
				}
				probes = float64(p.Summarize().Histogram.Totals[dram.CmdDPU]) / float64(n)
			}
			b.ReportMetric(probes, "match-probes/insert")
		})
	}
}

// BenchmarkAblationSchedulerSpread shows what the controller scheduler buys:
// the same command load mapped onto 1, 16, or 256 sub-arrays, with the
// makespan collapsing as independent sub-arrays overlap.
func BenchmarkAblationSchedulerSpread(b *testing.B) {
	mix := []struct {
		kind dram.CommandKind
		n    int
	}{
		{dram.CmdAAPCopy, 2048},
		{dram.CmdAAP2, 1024},
		{dram.CmdAAP3, 512},
	}
	g := dram.Default()
	tm := dram.DefaultTiming()
	for _, spread := range []int{1, 16, 256} {
		var cmds []exec.Command
		for _, m := range mix {
			for i := 0; i < m.n; i++ {
				cmds = append(cmds, exec.Command{Subarray: i % spread, Kind: m.kind})
			}
		}
		b.Run(fmt.Sprintf("subarrays%d", spread), func(b *testing.B) {
			var r sched.Result
			for i := 0; i < b.N; i++ {
				r = sched.ScheduleStream(cmds, sched.DefaultConfig(g, tm))
			}
			b.ReportMetric(r.MakespanNS/1e3, "makespan-µs")
			b.ReportMetric(r.Speedup, "overlap-x")
		})
	}
}

// randomRow builds a random 256-bit row vector.
func randomRow(rng *stats.RNG, n int) *bitvec.Vector {
	v := bitvec.New(n)
	for i := 0; i < n; i++ {
		v.Set(i, rng.Float64() < 0.5)
	}
	return v
}
