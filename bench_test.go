// Package pimassembler is the repository root. It holds no production code,
// only tests of the tree as a whole: the reachability gate TestReach
// (reach_test.go, DESIGN.md §2), the benchmarks that regenerate the paper's
// evaluation artefacts (one per table/figure — see DESIGN.md §3) and the
// ablation studies of DESIGN.md §6 (ablation_test.go); both kinds of
// benchmark report modeled quantities. The rest of this file is the four
// `make profile` inputs. Host performance is measured by the end-to-end
// benchmark under bench/ (`bash bench/run.sh -out DIR`, `-compare`), not
// here: a benchmark whose call BENCHMARK.json already times does not belong
// in this package.
package pimassembler

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"testing"

	"pimassembler/internal/assembly"
	"pimassembler/internal/circuit"
	"pimassembler/internal/engine"
	"pimassembler/internal/eval"
	"pimassembler/internal/genome"
	"pimassembler/internal/parallel"
	"pimassembler/internal/perfmodel"
	"pimassembler/internal/platforms"
	"pimassembler/internal/stats"
)

// --- E1: Fig. 3a ---

func BenchmarkFig3aTransient(b *testing.B) {
	cfg := circuit.DefaultTransientConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for p := 0; p < 4; p++ {
			circuit.SimulateXNOR2(cfg, p&1 != 0, p&2 != 0)
		}
	}
}

// --- E2: Fig. 3b ---

func BenchmarkFig3bThroughput(b *testing.B) {
	for _, spec := range platforms.All() {
		for _, op := range []platforms.BulkOp{platforms.OpXNOR, platforms.OpAdd} {
			b.Run(fmt.Sprintf("%s/%v", spec.Name, op), func(b *testing.B) {
				var acc float64
				for i := 0; i < b.N; i++ {
					for _, n := range platforms.Fig3bSizes() {
						acc += spec.Throughput(op, n)
					}
				}
				if acc <= 0 {
					b.Fatal("degenerate throughput")
				}
				b.ReportMetric(spec.Throughput(op, 1<<28)/1e9, "Gbit/s-modeled")
			})
		}
	}
}

// --- E3: Table I ---

func BenchmarkTableIMonteCarlo(b *testing.B) {
	m := circuit.DefaultVariationModel()
	// The paper's full per-point trial budget, at the hardest sweep point,
	// serial vs pooled; both produce the identical result by construction.
	const trials = 10_000
	for _, mode := range []struct {
		name    string
		workers int
	}{{"serial", 1}, {"parallel", 0}} {
		b.Run(mode.name, func(b *testing.B) {
			defer parallel.SetWorkers(0)
			parallel.SetWorkers(mode.workers)
			rng := stats.NewRNG(1)
			b.ReportAllocs()
			var r circuit.VariationResult
			for i := 0; i < b.N; i++ {
				r = m.MonteCarlo(trials, 0.20, rng.Split())
			}
			b.ReportMetric(r.TRAErrPct, "TRA-err-%")
			b.ReportMetric(r.TwoRowErrPct, "2row-err-%")
		})
	}
}

// --- E4: area overhead ---

func BenchmarkAreaOverhead(b *testing.B) {
	m := perfmodel.DefaultAreaModel()
	g := platforms.PIMGeometry()
	var rep perfmodel.AreaReport
	for i := 0; i < b.N; i++ {
		rep = m.Overhead(g)
	}
	b.ReportMetric(rep.OverheadPct, "area-%")
}

// --- E5/E6: Fig. 9 ---

func BenchmarkFig9Assembly(b *testing.B) {
	for _, k := range genome.PaperChr14().KmerRanges {
		counts := eval.PaperCounts(k)
		b.Run(fmt.Sprintf("k%d", k), func(b *testing.B) {
			var pa, gpu perfmodel.StageCost
			for i := 0; i < b.N; i++ {
				for _, s := range eval.Fig9Platforms() {
					c := perfmodel.AssemblyCost(s, counts)
					switch s.Name {
					case "P-A":
						pa = c
					case "GPU":
						gpu = c
					}
				}
			}
			b.ReportMetric(pa.TotalS(), "P-A-s")
			b.ReportMetric(gpu.TotalS()/pa.TotalS(), "speedup-vs-GPU")
			b.ReportMetric(pa.PowerW, "P-A-W")
		})
	}
}

// --- E7: Fig. 10 ---

func BenchmarkFig10Parallelism(b *testing.B) {
	for _, k := range []int{16, 32} {
		counts := eval.PaperCounts(k)
		b.Run(fmt.Sprintf("k%d", k), func(b *testing.B) {
			var pts []perfmodel.PdPoint
			for i := 0; i < b.N; i++ {
				pts = perfmodel.PdTradeoff(counts, eval.Fig10Pds())
			}
			b.ReportMetric(float64(perfmodel.OptimalPd(pts)), "optimal-Pd")
		})
	}
}

// --- E8/E9: Fig. 11 ---

func BenchmarkFig11Bottleneck(b *testing.B) {
	var us []perfmodel.Utilization
	for i := 0; i < b.N; i++ {
		us = eval.Fig11()
	}
	for _, u := range us {
		if u.Platform == "P-A" && u.K == 16 {
			b.ReportMetric(u.MBRPct, "P-A-MBR-%")
			b.ReportMetric(u.RURPct, "P-A-RUR-%")
		}
	}
}

// --- E10: headline summary (exercises the full harness) ---

func BenchmarkSummaryHarness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		eval.RenderFig3b(io.Discard)
		eval.RenderFig9(io.Discard)
	}
}

// --- `make profile` inputs ---

// BenchmarkSoftwarePipeline100k is the sw_100k shape of the end-to-end
// benchmark (100 k × 101 bp error-free reads of a 1 Mbp genome, k=16):
// FASTA bytes → scanner source → software engine → contigs. `make profile`
// writes its CPU and heap profiles.
func BenchmarkSoftwarePipeline100k(b *testing.B) {
	benchSoftwarePipeline(b, 1_000_000, 100_000, 0, assembly.Options{K: 16})
}

// BenchmarkSoftwarePipelineNoisy is the sw_noisy_k32 shape and option set
// (30 k × 101 bp reads of a 100 kbp genome with 1 % substitutions, k=32,
// Correct + Simplify + MinCount=2), where read correction is the stage to
// watch: `make profile PROFILE_BENCH=BenchmarkSoftwarePipelineNoisy`.
func BenchmarkSoftwarePipelineNoisy(b *testing.B) {
	benchSoftwarePipeline(b, 100_000, 30_000, 0.01, assembly.Options{K: 32, Correct: true, Simplify: true, MinCount: 2})
}

// BenchmarkSoftwarePipelineLowCoverage is one dist_60k shard (15 k × 101 bp
// error-free reads of a 600 kbp genome, 2.5×, k=16): ≈ 2 k contigs over a
// graph ≈ 90 % the size of the unsharded one, so stage 2 is a third of the
// time and the contig walk refills its lanes thousands of times:
// `make profile PROFILE_BENCH=BenchmarkSoftwarePipelineLowCoverage`.
func BenchmarkSoftwarePipelineLowCoverage(b *testing.B) {
	benchSoftwarePipeline(b, 600_000, 15_000, 0, assembly.Options{K: 16})
}

// benchSoftwarePipeline times the software engine from encoded FASTA bytes to
// contigs over reads sampled from a random genome.
func benchSoftwarePipeline(b *testing.B, genomeLen, reads int, errRate float64, opts assembly.Options) {
	rng := stats.NewRNG(1)
	ref := genome.GenerateGenome(genomeLen, rng)
	sampler := genome.NewReadSampler(ref, 101, errRate, rng)
	var fasta bytes.Buffer
	w := genome.NewRecordWriter(&fasta)
	for i := 0; i < reads; i++ {
		if err := w.Write(genome.Record{Name: fmt.Sprintf("r%d", i), Seq: sampler.Next()}); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		b.Fatal(err)
	}
	eng, err := engine.Lookup("software")
	if err != nil {
		b.Fatal(err)
	}
	var contigs int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := genome.NewScannerSource(genome.NewScanner(bytes.NewReader(fasta.Bytes()), genome.FormatFASTA))
		rep, err := eng.Assemble(context.Background(), src, engine.Options{Options: opts})
		if err != nil {
			b.Fatal(err)
		}
		contigs = len(rep.Contigs)
	}
	b.ReportMetric(float64(contigs), "contigs")
}

// BenchmarkPIMEngine is the functional engine end to end — AssemblePIM plus
// Platform.Summarize, the accounting of the recorded stream — on 150 reads
// (pim_600 runs 200): `make profile PROFILE_BENCH=BenchmarkPIMEngine`.
func BenchmarkPIMEngine(b *testing.B) {
	rng := stats.NewRNG(6)
	ref := genome.GenerateGenome(2_000, rng)
	reads := genome.NewReadSampler(ref, 101, 0, rng).Sample(150)
	eng, err := engine.Lookup("pim")
	if err != nil {
		b.Fatal(err)
	}
	opts := engine.Options{Options: assembly.Options{K: 16}, Subarrays: 16}
	var cmds int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := eng.Assemble(context.Background(), genome.NewSliceSource(reads), opts)
		if err != nil {
			b.Fatal(err)
		}
		cmds = rep.Functional.Commands
	}
	b.ReportMetric(float64(cmds), "sim-cmds")
}
