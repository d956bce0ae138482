// Command assemble runs the end-to-end genome assembler: FASTA/FASTQ reads
// in, contigs out, on any engine from the pluggable registry — the software
// reference pipeline, the functional PIM simulation (every k-mer comparison
// and counter update executed on the simulated sub-arrays), or one of the
// per-platform analytical estimators — plus optional per-platform latency
// and power estimates for the workload.
//
// Usage:
//
//	assemble -in reads.fasta -k 16 -out contigs.fasta [-engine pim] [-scaffold] [-estimate]
//	assemble -in reads.fasta -shards 4 [-shard-engines software,pim]
//	assemble -in reads.fasta -shards 4 -spill-dir /tmp/spill [-max-resident-reads 65536]
//	assemble -in reads.fasta -shards 4 -spill-dir /tmp/spill -worker-procs 2
//	assemble -batch jobs.manifest [-workers 4]
//	assemble -list-engines
//	assemble -worker   (internal: serve shard jobs over stdin/stdout)
//
// With -worker-procs N the out-of-core run goes multi-process: the
// coordinator launches N copies of this binary in -worker mode, dispatches
// one spill file per shard over the length-prefixed frame protocol, and
// merges the per-shard reports through the exact in-process merge path —
// the output is byte-identical to the same run without -worker-procs.
//
// Exit codes: 0 on success, 1 when a run (or any batch job or worker
// serving loop) fails, 2 on usage errors — bad flags, an option set no run
// can execute (k outside [2,32], -scaffold at k <= 4; also on a manifest
// line, reported as path:line), an unreadable manifest, an unknown engine
// name — all reported before any input is opened.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"pimassembler/internal/assembly"
	"pimassembler/internal/debruijn"
	"pimassembler/internal/distshard"
	"pimassembler/internal/engine"
	"pimassembler/internal/genome"
	"pimassembler/internal/jobqueue"
	workerpool "pimassembler/internal/parallel"
	"pimassembler/internal/shard"
)

// workerStdin is the stream a -worker process serves; a variable so tests
// can drive the worker loop without owning the process's real stdin.
var workerStdin io.Reader = os.Stdin

// Exit codes, documented in -h output.
const (
	exitOK      = 0
	exitRuntime = 1
	exitUsage   = 2
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable main: parse args, dispatch, and return the process
// exit code. Every failure path prints a one-line message to stderr.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("assemble", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		in         = fs.String("in", "", "input reads (FASTA or FASTQ by extension)")
		out        = fs.String("out", "contigs.fasta", "output contigs FASTA")
		k          = fs.Int("k", 16, "k-mer length (paper sweeps 16, 22, 26, 32)")
		minCount   = fs.Uint("mincount", 0, "drop k-mers observed fewer times")
		engineName = fs.String("engine", "software", "assembly engine (see -list-engines)")
		listEng    = fs.Bool("list-engines", false, "list the registered engines and exit")
		nsub       = fs.Int("subarrays", 16, "PIM engine: sub-arrays for the hash table")
		scaffold   = fs.Bool("scaffold", false, "run stage 3 (greedy scaffolding)")
		simplify   = fs.Bool("simplify", false, "run Velvet-style tip/bubble removal after graph construction")
		correctF   = fs.Bool("correct", false, "run k-mer-spectrum read correction before counting")
		estimate   = fs.Bool("estimate", false, "print per-platform latency/power estimates")
		refPath    = fs.String("ref", "", "optional reference FASTA for quality metrics")
		paired     = fs.Bool("paired", false, "treat input as interleaved paired-end reads and run mate-pair scaffolding")
		insert     = fs.Int("insert", 400, "paired mode: mean library insert size")
		workers    = fs.Int("workers", 0, "worker count for parallel stages and the batch job queue (0 = GOMAXPROCS); results are bit-identical for any value")
		countWkrs  = fs.Int("count-workers", 0, "goroutines that fold the stage-1 k-mer counter's buckets and count the -correct spectrum (0/1 = the calling goroutine; contigs identical for any value)")
		batch      = fs.String("batch", "", "run a manifest of jobs through the concurrent queue (one '<input> <engine> [key=value ...]' per line)")
		shards     = fs.Int("shards", 0, "split the reads into N deterministic shards and merge (0 = unsharded; output is invariant in N)")
		shardEng   = fs.String("shard-engines", "", "comma-separated engine list assigned to shards round-robin (requires -shards; default: -engine)")
		spillDir   = fs.String("spill-dir", "", "out-of-core sharding: stream the input into per-shard spill files under this directory instead of holding the reads in memory (requires -shards)")
		maxRes     = fs.Int("max-resident-reads", 0, "out-of-core sharding: cap the decoded reads resident in memory across spilling and shard assembly (requires -spill-dir; 0 = default)")
		workerN    = fs.Int("worker-procs", 0, "distribute the out-of-core shards across N worker processes of this binary (requires -spill-dir; output is byte-identical to the in-process run)")
		workerTO   = fs.Duration("worker-timeout", 0, "per-shard attempt timeout for -worker-procs dispatch (0 = none)")
		workerRty  = fs.Int("worker-retries", 0, "extra attempts per shard for -worker-procs dispatch; crashed or timed-out workers are respawned")
		workerMode = fs.Bool("worker", false, "internal: serve shard jobs over stdin/stdout for a -worker-procs coordinator")
	)
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: assemble -in reads.fasta [flags]")
		fmt.Fprintln(stderr, "       assemble -in reads.fasta -shards N [-shard-engines a,b,c] [flags]")
		fmt.Fprintln(stderr, "       assemble -in reads.fasta -shards N -spill-dir DIR [-max-resident-reads M] [flags]")
		fmt.Fprintln(stderr, "       assemble -in reads.fasta -shards N -spill-dir DIR -worker-procs P [flags]")
		fmt.Fprintln(stderr, "       assemble -batch jobs.manifest [flags]")
		fmt.Fprintln(stderr, "       assemble -list-engines")
		fmt.Fprintln(stderr, "\nexit codes: 0 success; 1 run or batch-job failure; 2 usage error")
		fmt.Fprintln(stderr, "\nbatch manifest: one job per line, '#' comments;")
		fmt.Fprintln(stderr, "  <input-path> <engine> [k=N] [mincount=N] [subarrays=N] [timeout=DUR] [retries=N] [backoff=DUR]")
		fmt.Fprintln(stderr, "\nflags:")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		// The FlagSet already printed the one-line error and usage.
		return exitUsage
	}
	workerpool.SetWorkers(*workers)
	if *workerMode {
		// Worker mode ignores every other flag: the coordinator drives the
		// whole run over the pipes, including the options and engine names.
		if err := distshard.RunWorker(workerStdin, stdout, nil); err != nil {
			fmt.Fprintln(stderr, "assemble:", err)
			return exitRuntime
		}
		return exitOK
	}
	if *listEng {
		for _, e := range engine.Engines() {
			fmt.Fprintf(stdout, "%-14s %s\n", e.Name(), e.Describe())
		}
		return exitOK
	}

	defaults := engine.Options{
		Options: assembly.Options{
			K:            *k,
			MinCount:     uint32(*minCount),
			Scaffold:     *scaffold,
			Simplify:     *simplify,
			Correct:      *correctF,
			CountWorkers: *countWkrs,
		},
		Subarrays: *nsub,
	}
	if err := defaults.Validate(); err != nil {
		fmt.Fprintln(stderr, "assemble:", err)
		return exitUsage
	}

	if *batch != "" {
		if *in != "" {
			fmt.Fprintln(stderr, "assemble: -batch and -in are mutually exclusive")
			return exitUsage
		}
		if *shards > 0 {
			fmt.Fprintln(stderr, "assemble: -batch and -shards are mutually exclusive")
			return exitUsage
		}
		if *spillDir != "" {
			fmt.Fprintln(stderr, "assemble: -batch and -spill-dir are mutually exclusive")
			return exitUsage
		}
		return runBatch(*batch, *engineName, defaults, *workers, stdout, stderr)
	}

	if *shardEng != "" && *shards <= 0 {
		fmt.Fprintln(stderr, "assemble: -shard-engines requires -shards")
		return exitUsage
	}
	if *spillDir != "" && *shards <= 0 {
		fmt.Fprintln(stderr, "assemble: -spill-dir requires -shards")
		return exitUsage
	}
	if *maxRes != 0 && *spillDir == "" {
		fmt.Fprintln(stderr, "assemble: -max-resident-reads requires -spill-dir")
		return exitUsage
	}
	if *workerN > 0 && *spillDir == "" {
		fmt.Fprintln(stderr, "assemble: -worker-procs requires -spill-dir")
		return exitUsage
	}
	if (*workerTO != 0 || *workerRty != 0) && *workerN <= 0 {
		fmt.Fprintln(stderr, "assemble: -worker-timeout and -worker-retries require -worker-procs")
		return exitUsage
	}
	if *spillDir != "" && *paired {
		fmt.Fprintln(stderr, "assemble: -spill-dir and -paired are mutually exclusive")
		return exitUsage
	}
	shardNames := []string{*engineName}
	if *shardEng != "" {
		shardNames = strings.Split(*shardEng, ",")
		for i, name := range shardNames {
			shardNames[i] = strings.TrimSpace(name)
		}
	}
	if *shards > 0 {
		// Engine-name typos are usage errors, caught before any work runs.
		for _, name := range shardNames {
			if _, err := engine.Lookup(name); err != nil {
				fmt.Fprintln(stderr, "assemble:", err)
				return exitUsage
			}
		}
	}

	if *in == "" {
		fmt.Fprintln(stderr, "assemble: -in is required")
		fs.Usage()
		return exitUsage
	}

	eng, err := engine.Lookup(*engineName)
	if err != nil {
		fmt.Fprintln(stderr, "assemble:", err)
		return exitUsage
	}
	// Out-of-core mode never materialises the read set; everything else
	// loads it up front.
	var reads []*genome.Sequence
	if *spillDir == "" {
		var err error
		reads, err = loadReads(*in)
		if err != nil {
			fmt.Fprintln(stderr, "assemble:", err)
			return exitRuntime
		}
	}
	var pairs []genome.ReadPair
	if *paired {
		if len(reads)%2 != 0 {
			fmt.Fprintf(stderr, "assemble: paired mode needs an even read count, got %d\n", len(reads))
			return exitRuntime
		}
		for i := 0; i+1 < len(reads); i += 2 {
			pairs = append(pairs, genome.ReadPair{R1: reads[i], R2: reads[i+1]})
		}
		reads = genome.Flatten(pairs)
	}
	opts := defaults
	if *refPath != "" {
		refSeqs, err := loadReads(*refPath)
		if err != nil {
			fmt.Fprintln(stderr, "assemble:", err)
			return exitRuntime
		}
		if len(refSeqs) != 1 {
			fmt.Fprintf(stderr, "assemble: reference FASTA must hold exactly one sequence, got %d\n", len(refSeqs))
			return exitRuntime
		}
		opts.Ref = refSeqs[0]
	}

	var rep *engine.Report
	nReads := int64(len(reads))
	plan := shard.Plan{
		Shards:           *shards,
		Engines:          shardNames,
		Opts:             opts,
		Workers:          *workers,
		MaxResidentReads: *maxRes,
	}
	switch {
	case *spillDir != "":
		var code int
		rep, nReads, code = runSpill(context.Background(), *in, *spillDir, plan, distshard.Config{
			WorkerProcs: *workerN,
			Timeout:     *workerTO,
			Retry:       jobqueue.RetryPolicy{MaxAttempts: *workerRty + 1},
		}, stdout, stderr)
		if code != exitOK {
			return code
		}
	case *shards > 0:
		res, err := shard.Assemble(context.Background(), reads, plan)
		if err != nil {
			fmt.Fprintln(stderr, "assemble:", err)
			return exitRuntime
		}
		rep = res.Report
		if len(res.PerShard) > 1 {
			shardReport(stdout, res)
		} else {
			// One shard is the identity merge: same report, same output,
			// byte for byte, as the unsharded run.
			report(stdout, rep)
		}
	default:
		var err error
		rep, err = eng.Assemble(context.Background(), genome.NewSliceSource(reads), opts)
		if err != nil {
			fmt.Fprintln(stderr, "assemble:", err)
			return exitRuntime
		}
		report(stdout, rep)
	}
	contigs := rep.Contigs

	f, err := os.Create(*out)
	if err != nil {
		fmt.Fprintln(stderr, "assemble:", err)
		return exitRuntime
	}
	err = debruijn.WriteContigsFASTA(f, contigs)
	// A short write can surface only at close (full disk): exit 0 must mean
	// the whole contigs file is on its way to the device.
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintln(stderr, "assemble:", err)
		return exitRuntime
	}

	fmt.Fprintf(stdout, "assembled %d reads (k=%d): %d contigs, %d bases, N50=%d\n",
		nReads, *k, len(contigs), debruijn.TotalBases(contigs), debruijn.N50(contigs))
	if *paired {
		ms := assembly.MatePairScaffold(contigs, pairs, *k, *insert, 3)
		longest := 0
		for _, s := range ms {
			if len(s.Contigs) > longest {
				longest = len(s.Contigs)
			}
		}
		fmt.Fprintf(stdout, "mate-pair scaffolding: %d contigs -> %d scaffolds (longest chain %d contigs)\n",
			len(contigs), len(ms), longest)
	}
	if *scaffold && rep.Scaffolds != nil {
		fmt.Fprintf(stdout, "stage 3: %d scaffolds\n", len(rep.Scaffolds))
	}
	if rep.Quality != nil {
		fmt.Fprintln(stdout, "quality vs reference:", *rep.Quality)
	}

	if *estimate && rep.Counts != nil {
		fmt.Fprintln(stdout, "\nper-platform estimates for this workload (analytical engines):")
		for _, c := range engine.EstimateAll(*rep.Counts) {
			fmt.Fprintln(stdout, " ", c)
		}
	}
	return exitOK
}

// shardReport prints the per-shard breakdown and the cross-shard aggregates
// of a multi-shard run.
func shardReport(w io.Writer, res *shard.Result) {
	fmt.Fprintf(w, "sharded run: %d shards -> %s\n", len(res.PerShard), res.Report.Engine)
	for i, sr := range res.PerShard {
		var nreads int64
		if sr.Counts != nil {
			nreads = sr.Counts.ReadCount
		}
		fmt.Fprintf(w, "  shard %d: engine %-14s %5d reads, %d contigs\n",
			i, res.Engines[i], nreads, len(sr.Contigs))
	}
	if res.Commands > 0 {
		fmt.Fprintf(w, "  functional shards: %d commands, %.2f µJ array energy (sum), makespan %.2f ms (max over shards)\n",
			res.Commands, res.EnergyPJ/1e6, res.MakespanNS/1e6)
	}
	if res.CostTotalS > 0 {
		fmt.Fprintf(w, "  analytical shards: %.3g s modeled time (max over shards), %.3g J modeled energy (sum)\n",
			res.CostTotalS, res.CostEnergyJ)
	}
}

// report prints the engine-family-specific accounting of the run.
func report(w io.Writer, rep *engine.Report) {
	switch {
	case rep.Timings != nil:
		fmt.Fprintf(w, "software pipeline: hashmap %v, deBruijn %v, traverse %v\n",
			rep.Timings.Hashmap, rep.Timings.DeBruijn, rep.Timings.Traverse)
	case rep.Functional != nil:
		s := rep.Functional
		fmt.Fprintf(w, "PIM functional run (serial stage 1): %d commands, %.2f ms serial command time, %.2f µJ array energy\n",
			s.Commands, s.SerialLatencyNS/1e6, s.EnergyPJ/1e6)
		fmt.Fprintf(w, "scheduled makespan: %.2f ms (%.1fx overlap across %d sub-arrays)\n",
			s.Makespan.MakespanNS/1e6, s.Makespan.Speedup, s.Subarrays)
		fmt.Fprintln(w, "per-stage command histogram:")
		for _, line := range strings.Split(strings.TrimRight(s.Histogram.String(), "\n"), "\n") {
			fmt.Fprintln(w, "  "+line)
		}
		fmt.Fprintln(w, "per-stage attribution (serial cost, energy, scheduled makespan):")
		for _, c := range s.StageCosts {
			fmt.Fprintf(w, "  %s  makespan %.1f µs\n", c, s.Stages[c.Stage].MakespanNS/1e3)
		}
	case rep.Cost != nil:
		fmt.Fprintf(w, "analytical engine %s (contigs from the measured software reference run):\n  %s\n",
			rep.Engine, rep.Cost)
	}
}

// loadReads streams the input one record at a time — only the packed 2-bit
// sequences are retained, so ingestion memory is bounded by the scanner
// buffer plus the encoded reads, never the text form of the whole file.
func loadReads(path string) ([]*genome.Sequence, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return genome.ReadAll(genome.NewScannerSource(genome.NewScanner(f, genome.DetectFormat(path))))
}
