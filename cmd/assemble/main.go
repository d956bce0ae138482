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
//	assemble -batch jobs.manifest [-workers 4]
//	assemble -list-engines
//
// Every run assembles the whole read set in one process, as the paper does:
// stage 1 spreads the k-mers over the hash table's sub-arrays, never the
// reads over separate runs. Splitting the reads and re-merging the contigs
// was measured slower and larger than this at every size tried (DESIGN.md
// §12).
//
// Exit codes: 0 on success, 1 when a run (or any batch job) fails, 2 on
// usage errors — bad or removed flags, an option set no run can execute (k
// outside [2,32], -scaffold at k <= 4; also on a manifest line, reported as
// path:line), an unreadable manifest, an unknown engine name — all reported
// before any input is opened.
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
	"pimassembler/internal/engine"
	"pimassembler/internal/genome"
	workerpool "pimassembler/internal/parallel"
)

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
	def := engine.DefaultOptions()
	var (
		in         = fs.String("in", "", "input reads (FASTA or FASTQ by extension)")
		out        = fs.String("out", "contigs.fasta", "output contigs FASTA")
		k          = fs.Int("k", def.K, "k-mer length (paper sweeps 16, 22, 26, 32)")
		minCount   = fs.Uint("mincount", 0, "drop k-mers observed fewer times")
		engineName = fs.String("engine", "software", "assembly engine (see -list-engines)")
		listEng    = fs.Bool("list-engines", false, "list the registered engines and exit")
		nsub       = fs.Int("subarrays", def.Subarrays, "PIM engine: sub-arrays for the hash table")
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
	)
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: assemble -in reads.fasta [flags]")
		fmt.Fprintln(stderr, "       assemble -batch jobs.manifest [flags]")
		fmt.Fprintln(stderr, "       assemble -list-engines")
		fmt.Fprintln(stderr, "\nexit codes: 0 success; 1 run or batch-job failure; 2 usage error")
		fmt.Fprintln(stderr, "\nbatch manifest: one job per line, '#' comments;")
		fmt.Fprintln(stderr, "  <input-path> <engine> [k=N] [mincount=N] [subarrays=N] [simplify=BOOL] [correct=BOOL] [scaffold=BOOL]")
		fmt.Fprintln(stderr, "  [timeout=DUR] [retries=N] [backoff=DUR]")
		fmt.Fprintln(stderr, "\nflags:")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		// The FlagSet already printed the one-line error and usage.
		return exitUsage
	}
	workerpool.SetWorkers(*workers)
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
		return runBatch(*batch, *engineName, defaults, *workers, stdout, stderr)
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
	// The input opens first, so a missing file fails before anything else;
	// its reads then stream into the engine one record at a time, and a
	// malformed record fails the run where it is met.
	input, err := os.Open(*in)
	if err != nil {
		fmt.Fprintln(stderr, "assemble:", err)
		return exitRuntime
	}
	defer input.Close()
	var src genome.ReadSource = genome.NewScannerSource(genome.NewScanner(input, genome.DetectFormat(*in)))
	var pairs []genome.ReadPair
	if *paired {
		reads, err := genome.ReadAll(src)
		if err != nil {
			fmt.Fprintln(stderr, "assemble:", err)
			return exitRuntime
		}
		if len(reads)%2 != 0 {
			fmt.Fprintf(stderr, "assemble: paired mode needs an even read count, got %d\n", len(reads))
			return exitRuntime
		}
		for i := 0; i+1 < len(reads); i += 2 {
			pairs = append(pairs, genome.ReadPair{R1: reads[i], R2: reads[i+1]})
		}
		src = genome.NewSliceSource(genome.Flatten(pairs))
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

	rep, err := eng.Assemble(context.Background(), src, opts)
	if err != nil {
		fmt.Fprintln(stderr, "assemble:", err)
		return exitRuntime
	}
	report(stdout, rep)
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
		rep.Counts.ReadCount, *k, len(contigs), debruijn.TotalBases(contigs), debruijn.N50(contigs))
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

// loadReads reads every record of path into memory, 2-bit packed: the
// -ref reference and a -batch job's reads, which a retried job replays. A
// single run streams -in instead; paired mode drains that stream whole to
// pair it.
func loadReads(path string) ([]*genome.Sequence, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return genome.ReadAll(genome.NewScannerSource(genome.NewScanner(f, genome.DetectFormat(path))))
}
