// Package pimassembler's root benchmark suite regenerates every evaluation
// artefact (one benchmark per paper table/figure — see DESIGN.md §3) and
// runs the ablation studies of DESIGN.md §5. Figure benchmarks exercise the
// same eval runners the cmd/pimassembler binary uses; functional benchmarks
// drive the bit-accurate simulator.
package pimassembler

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"testing"
	"time"

	"pimassembler/internal/assembly"
	"pimassembler/internal/bitvec"
	"pimassembler/internal/circuit"
	"pimassembler/internal/core"
	"pimassembler/internal/debruijn"
	"pimassembler/internal/dram"
	"pimassembler/internal/engine"
	"pimassembler/internal/eval"
	"pimassembler/internal/exec"
	"pimassembler/internal/genome"
	"pimassembler/internal/jobqueue"
	"pimassembler/internal/kmer"
	"pimassembler/internal/parallel"
	"pimassembler/internal/perfmodel"
	"pimassembler/internal/platforms"
	"pimassembler/internal/sched"
	"pimassembler/internal/shard"
	"pimassembler/internal/stats"
	"pimassembler/internal/subarray"
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

// --- Functional simulator benchmarks ---

func BenchmarkFunctionalXNORRow(b *testing.B) {
	s := subarray.New(dram.Default(), dram.NewMeter(dram.DefaultTiming(), dram.DefaultEnergy()))
	rng := stats.NewRNG(1)
	a := randomRow(rng, 256)
	c := randomRow(rng, 256)
	s.Poke(0, a)
	s.Poke(1, c)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.XNOR(0, 1, 2)
	}
}

func BenchmarkFunctionalBitSerialAdd(b *testing.B) {
	for _, m := range []int{8, 16, 32} {
		b.Run(fmt.Sprintf("width%d", m), func(b *testing.B) {
			s := subarray.New(dram.Default(), dram.NewMeter(dram.DefaultTiming(), dram.DefaultEnergy()))
			rng := stats.NewRNG(2)
			for bit := 0; bit < m; bit++ {
				s.Poke(bit, randomRow(rng, 256))
				s.Poke(100+bit, randomRow(rng, 256))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.BitSerialAdd(0, 100, 200, 300, m)
			}
		})
	}
}

func BenchmarkFunctionalBulkXNOR(b *testing.B) {
	for _, mode := range []struct {
		name    string
		workers int
	}{{"serial", 1}, {"parallel", 0}} {
		b.Run(mode.name, func(b *testing.B) {
			defer parallel.SetWorkers(0)
			parallel.SetWorkers(mode.workers)
			p := core.NewDefaultPlatform()
			n := p.BulkPad(1 << 14)
			rng := stats.NewRNG(3)
			x, y := bitvec.New(n), bitvec.New(n)
			for i := 0; i < n; i++ {
				x.Set(i, rng.Float64() < 0.5)
				y.Set(i, rng.Float64() < 0.5)
			}
			b.SetBytes(int64(n / 8))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.BulkXNOR(x, y)
			}
		})
	}
}

func BenchmarkFunctionalHashTableAdd(b *testing.B) {
	p := core.NewDefaultPlatform()
	tbl := core.NewHashTable(p, 16, 64)
	rng := stats.NewRNG(4)
	kms := make([]kmer.Kmer, 4096)
	for i := range kms {
		kms[i] = kmer.Kmer(rng.Uint64()) & kmer.Kmer(kmer.Mask(16))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tbl.Add(kms[i%len(kms)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSoftwareAssembly isolates the software hot path at the paper's
// bracketing k values: stage 1 — k-mer counting, serial CountReads vs the
// hash-partitioned parallel counter at NumCPU workers — and stage 2 — graph
// build plus traversal (Euler attempt + contigs) on the dense
// interned-ID/CSR core. The count-serial / count-parallel wall-clock ratio
// is the PR 7 acceptance metric. (The map-based builder the dense core was
// measured against in PR 6 is a test oracle now, out of this package's
// reach; BENCH_PR6–14.json keep its numbers.)
func BenchmarkSoftwareAssembly(b *testing.B) {
	rng := stats.NewRNG(8)
	ref := genome.GenerateGenome(20_000, rng)
	reads := genome.NewReadSampler(ref, 101, 0, rng).Sample(2_000)
	for _, k := range []int{16, 32} {
		b.Run(fmt.Sprintf("k%d/count-serial", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				kmer.CountReads(reads, k)
			}
		})
		b.Run(fmt.Sprintf("k%d/count-parallel", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				kmer.CountReadsParallel(reads, k, parallel.Workers())
			}
		})
		tbl := kmer.CountReads(reads, k)
		b.Run(fmt.Sprintf("k%d/dense", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g := debruijn.Build(tbl)
				g.EulerPath()
				g.Contigs()
			}
		})
	}
}

// BenchmarkCountReadsParallel measures stage 1 in isolation on the
// BenchmarkSoftwareAssembly workload: the serial open-addressing table
// against the hash-partitioned counter across worker counts. kmers/s is the
// headline rate; the serial-vs-NumCPU ratio is the PR 7 acceptance metric.
func BenchmarkCountReadsParallel(b *testing.B) {
	rng := stats.NewRNG(8)
	ref := genome.GenerateGenome(20_000, rng)
	reads := genome.NewReadSampler(ref, 101, 0, rng).Sample(2_000)
	var totalKmers int64
	for _, r := range reads {
		totalKmers += int64(r.Len() - 16 + 1)
	}
	for _, k := range []int{16, 32} {
		b.Run(fmt.Sprintf("k%d/serial", k), func(b *testing.B) {
			b.ReportAllocs()
			var elapsed time.Duration
			for i := 0; i < b.N; i++ {
				start := time.Now()
				kmer.CountReads(reads, k)
				elapsed += time.Since(start)
			}
			b.ReportMetric(float64(totalKmers)*float64(b.N)/elapsed.Seconds(), "kmers/s")
		})
		workerSweep := []int{1, 4}
		if n := parallel.Workers(); n != 1 && n != 4 {
			workerSweep = append(workerSweep, n)
		}
		for _, w := range workerSweep {
			b.Run(fmt.Sprintf("k%d/workers%d", k, w), func(b *testing.B) {
				b.ReportAllocs()
				var elapsed time.Duration
				for i := 0; i < b.N; i++ {
					start := time.Now()
					kmer.CountReadsParallel(reads, k, w)
					elapsed += time.Since(start)
				}
				b.ReportMetric(float64(totalKmers)*float64(b.N)/elapsed.Seconds(), "kmers/s")
			})
		}
	}
}

func BenchmarkSoftwarePipeline(b *testing.B) {
	rng := stats.NewRNG(5)
	ref := genome.GenerateGenome(20_000, rng)
	reads := genome.NewReadSampler(ref, 101, 0, rng).Sample(2_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := assembly.Assemble(reads, assembly.Options{K: 16}); err != nil {
			b.Fatal(err)
		}
	}
}

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

func BenchmarkPIMPipeline(b *testing.B) {
	rng := stats.NewRNG(6)
	ref := genome.GenerateGenome(2_000, rng)
	reads := genome.NewReadSampler(ref, 101, 0, rng).Sample(150)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := core.NewDefaultPlatform()
		if _, err := assembly.AssemblePIM(p, genome.NewSliceSource(reads), assembly.Options{K: 16}, 16); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPIMEngine is the functional engine end to end — AssemblePIM plus
// Platform.Summarize, the accounting of the recorded stream that
// BenchmarkPIMPipeline never reaches.
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

// BenchmarkScheduleStream times the controller scheduler alone over a
// 1 M-command stream with the functional run's shape: bursts of up to 40
// commands to one sub-array, hopping over 64 sub-arrays.
func BenchmarkScheduleStream(b *testing.B) {
	const n = 1 << 20
	kinds := []dram.CommandKind{dram.CmdAAPCopy, dram.CmdAAPCopy, dram.CmdAAP2, dram.CmdAAP3, dram.CmdRead, dram.CmdWrite, dram.CmdDPU}
	stages := []exec.Stage{exec.StageHashmap, exec.StageDeBruijn, exec.StageTraverse}
	rng := stats.NewRNG(11)
	cmds := make([]exec.Command, 0, n)
	for sub, left := 0, 0; len(cmds) < n; left-- {
		if left == 0 {
			sub, left = rng.Intn(64), 1+rng.Intn(40)
		}
		k := kinds[rng.Intn(len(kinds))]
		cmds = append(cmds, exec.Command{Subarray: sub, Kind: k, Stage: stages[sub%len(stages)], Rows: k.SourceRows()})
	}
	cfg := sched.DefaultConfig(dram.Default(), dram.DefaultTiming())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := sched.ScheduleStream(cmds, cfg); r.Commands != n {
			b.Fatalf("scheduled %d of %d commands", r.Commands, n)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/cmd")
}

// --- Engine registry dispatch (DESIGN.md §10) ---

// BenchmarkEngineDispatch measures the engine layer's overhead against the
// direct calls it wraps: the registry lookup plus Report assembly must be
// in the noise next to the pipeline itself.
func BenchmarkEngineDispatch(b *testing.B) {
	rng := stats.NewRNG(9)
	ref := genome.GenerateGenome(20_000, rng)
	reads := genome.NewReadSampler(ref, 101, 0, rng).Sample(2_000)
	opts := assembly.Options{K: 16}

	b.Run("software-direct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := assembly.Assemble(reads, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("software-engine", func(b *testing.B) {
		ctx := context.Background()
		for i := 0; i < b.N; i++ {
			eng, err := engine.Lookup("software")
			if err != nil {
				b.Fatal(err)
			}
			if _, err := eng.Assemble(ctx, genome.NewSliceSource(reads), engine.Options{Options: opts}); err != nil {
				b.Fatal(err)
			}
		}
	})

	counts := eval.PaperCounts(16)
	b.Run("analytical-direct", func(b *testing.B) {
		spec := platforms.DRISA3T1C()
		var c perfmodel.StageCost
		for i := 0; i < b.N; i++ {
			c = perfmodel.AssemblyCost(spec, counts)
		}
		b.ReportMetric(c.TotalS(), "D3-s")
	})
	b.Run("analytical-engine", func(b *testing.B) {
		ctx := context.Background()
		var rep *engine.Report
		for i := 0; i < b.N; i++ {
			eng, err := engine.Lookup("drisa-3t1c")
			if err != nil {
				b.Fatal(err)
			}
			rep, err = eng.Assemble(ctx, nil, engine.Options{Counts: &counts})
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(rep.Cost.TotalS(), "D3-s")
	})
}

// BenchmarkCrossEngineEval exercises the registry-driven comparison
// experiment end to end (every engine on the shared workload).
func BenchmarkCrossEngineEval(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := eval.CrossEngine()
		for _, r := range rows {
			if r.Err != "" {
				b.Fatalf("engine %s failed: %s", r.Name, r.Err)
			}
		}
	}
}

// --- Job queue (DESIGN.md §11) ---

// BenchmarkJobQueue measures batch dispatch throughput through the
// concurrent job queue against serial dispatch of the same manifest: eight
// mixed-engine jobs per batch, identical slot-ordered Reports either way.
func BenchmarkJobQueue(b *testing.B) {
	rng := stats.NewRNG(10)
	workload := func(n int) []*genome.Sequence {
		ref := genome.GenerateGenome(10_000, rng.Split())
		return genome.NewReadSampler(ref, 101, 0, rng.Split()).Sample(n)
	}
	opts := engine.Options{Options: assembly.Options{K: 16}, Subarrays: 16}
	counts := eval.PaperCounts(16)
	var readSets [][]*genome.Sequence
	for i := 0; i < 3; i++ {
		readSets = append(readSets, workload(800), workload(600))
	}
	// Sources carry a cursor, so every Run gets a fresh manifest over the
	// same read sets.
	makeSpecs := func() []jobqueue.Spec {
		var specs []jobqueue.Spec
		for i := 0; i < 3; i++ {
			specs = append(specs,
				jobqueue.Spec{Engine: "software", Source: genome.NewSliceSource(readSets[2*i]), Opts: opts},
				jobqueue.Spec{Engine: "pim-assembler", Source: genome.NewSliceSource(readSets[2*i+1]), Opts: opts})
		}
		return append(specs,
			jobqueue.Spec{Engine: "drisa-3t1c", Opts: engine.Options{Counts: &counts}},
			jobqueue.Spec{Engine: "gpu", Opts: engine.Options{Counts: &counts}})
	}
	nSpecs := len(makeSpecs())

	for _, mode := range []struct {
		name    string
		workers int
	}{{"serial", 1}, {"queue", 0}} {
		b.Run(mode.name, func(b *testing.B) {
			workers := mode.workers
			if workers == 0 {
				workers = parallel.Workers()
			}
			q := jobqueue.New(engine.Default(), jobqueue.WithWorkers(workers))
			ctx := context.Background()
			b.ResetTimer()
			var elapsed time.Duration
			for i := 0; i < b.N; i++ {
				specs := makeSpecs()
				start := time.Now()
				results := q.Run(ctx, specs)
				elapsed += time.Since(start)
				for _, r := range results {
					if r.State != jobqueue.StateDone {
						b.Fatalf("job %d: state=%v err=%v", r.Slot, r.State, r.Err)
					}
				}
			}
			b.ReportMetric(float64(nSpecs)*float64(b.N)/elapsed.Seconds(), "jobs/s")
		})
	}
}

// --- Out-of-core sharding (DESIGN.md §15) ---

// BenchmarkShardSpill measures the out-of-core sharded path against the
// in-memory one on the same 2k-read workload: partition-to-disk plus
// spill-backed assembly versus slice sharding, identical merged contigs.
// spill-MB/s is the partitioner's ingest rate; the in-memory/spill ns/op
// ratio is the cost of bounding resident memory.
func BenchmarkShardSpill(b *testing.B) {
	rng := stats.NewRNG(11)
	ref := genome.GenerateGenome(20_000, rng)
	reads := genome.NewReadSampler(ref, 101, 0, rng).Sample(2_000)
	var fasta bytes.Buffer
	rw := genome.NewRecordWriter(&fasta)
	for i, r := range reads {
		if err := rw.Write(genome.Record{Name: fmt.Sprintf("r%d", i), Seq: r}); err != nil {
			b.Fatal(err)
		}
	}
	if err := rw.Flush(); err != nil {
		b.Fatal(err)
	}
	plan := shard.Plan{Shards: 4, Opts: engine.Options{Options: assembly.Options{K: 16}}}
	ctx := context.Background()

	b.Run("in-memory", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := shard.Assemble(ctx, reads, plan); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("spill", func(b *testing.B) {
		b.ReportAllocs()
		dir := b.TempDir()
		cfg := shard.SpillConfig{Shards: 4, Dir: dir, MaxResidentReads: len(reads) / 4}
		var spilled int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sp, err := shard.Partition(ctx, bytes.NewReader(fasta.Bytes()), genome.FormatFASTA, cfg)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := shard.AssembleSpill(ctx, sp, shard.Plan{
				Opts: plan.Opts, MaxResidentReads: cfg.MaxResidentReads,
			}); err != nil {
				b.Fatal(err)
			}
			spilled += sp.Bytes()
			sp.Close()
		}
		b.StopTimer()
		b.ReportMetric(float64(spilled)/(1<<20)/b.Elapsed().Seconds(), "spill-MB/s")
	})
}

// --- Ablation studies (DESIGN.md §5) ---

// AblationTwoRowVsTRAXnor isolates the paper's core claim: XNOR via the
// reconfigurable SA's two-row activation versus emulating it Ambit-style
// with majority/NOT ops (7 AAP cycles). The metric is AAP commands per
// row-wide XNOR.
func BenchmarkAblationTwoRowVsTRAXnor(b *testing.B) {
	run := func(b *testing.B, emulateAmbit bool) {
		s := subarray.New(dram.Default(), dram.NewMeter(dram.DefaultTiming(), dram.DefaultEnergy()))
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
		b.ReportMetric(float64(s.Meter().TotalCommands())/float64(b.N), "cmds/op")
		b.ReportMetric(s.Meter().LatencyNS/float64(b.N), "modeled-ns/op")
	}
	b.Run("two-row", func(b *testing.B) { run(b, false) })
	b.Run("ambit-TRA", func(b *testing.B) { run(b, true) })
}

// randomRow builds a random 256-bit row vector.
func randomRow(rng *stats.RNG, n int) *bitvec.Vector {
	v := bitvec.New(n)
	for i := 0; i < n; i++ {
		v.Set(i, rng.Float64() < 0.5)
	}
	return v
}
