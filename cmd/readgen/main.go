// Command readgen generates deterministic synthetic genomes and short-read
// datasets — the chromosome-14 substitute workload (DESIGN.md §1).
//
// Usage:
//
//	readgen -genome 100000 -reads 5000 -len 101 -seed 7 -out reads.fasta [-ref genome.fasta] [-errors 0.01]
//
// Exit codes: 0 on success, 1 when an output file cannot be written, 2 on
// usage errors (bad flags, sizes that do not fit together) — no file is
// created or truncated on a usage error.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"pimassembler/internal/genome"
	"pimassembler/internal/stats"
)

// Exit codes, documented in -h output.
const (
	exitOK      = 0
	exitRuntime = 1
	exitUsage   = 2
)

// repeatLen is the length of each tandem repeat -repeats plants.
const repeatLen = 500

// config is the dataset readgen was asked for.
type config struct {
	genomeLen, reads, readLen int
	errRate                   float64
	repeats                   int
	paired                    bool
	insert                    int
	stdInsert                 float64
	out, ref                  string
}

// validate rejects the flag combinations the generators would panic on, and
// output names a reader would take for FASTQ: readgen writes FASTA, and
// genome.DetectFormat goes by the extension.
func (c config) validate() error {
	switch {
	case genome.DetectFormat(c.out) == genome.FormatFASTQ:
		return fmt.Errorf("-out %q names a FASTQ file; readgen writes FASTA", c.out)
	case c.ref != "" && genome.DetectFormat(c.ref) == genome.FormatFASTQ:
		return fmt.Errorf("-ref %q names a FASTQ file; readgen writes FASTA", c.ref)
	case c.reads < 0:
		return fmt.Errorf("-reads %d is negative", c.reads)
	case c.readLen <= 0 || c.readLen > c.genomeLen:
		return fmt.Errorf("-len %d outside [1, -genome %d]", c.readLen, c.genomeLen)
	case c.errRate < 0 || c.errRate >= 1:
		return fmt.Errorf("-errors %v outside [0,1)", c.errRate)
	case c.repeats > 0 && c.genomeLen < repeatLen:
		return fmt.Errorf("-repeats plants %d bp repeats, longer than -genome %d", repeatLen, c.genomeLen)
	case c.paired && c.insert < 2*c.readLen:
		return fmt.Errorf("-insert %d cannot hold two %d bp reads", c.insert, c.readLen)
	case c.paired && c.insert+int(4*c.stdInsert) > c.genomeLen:
		return fmt.Errorf("-insert %d (+4 x -stdinsert %v) too large for -genome %d", c.insert, c.stdInsert, c.genomeLen)
	}
	return nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable main: parse args, validate, generate, and return the
// process exit code. Every failure path prints a one-line message to stderr.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("readgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var c config
	fs.IntVar(&c.genomeLen, "genome", 100_000, "synthetic genome length (bp)")
	fs.IntVar(&c.reads, "reads", 5_000, "number of reads to sample")
	fs.IntVar(&c.readLen, "len", 101, "read length (bp), paper uses 101")
	fs.Float64Var(&c.errRate, "errors", 0, "per-base substitution error rate")
	fs.IntVar(&c.repeats, "repeats", 0, "planted tandem repeats (0 = uniform random genome)")
	fs.BoolVar(&c.paired, "paired", false, "generate paired-end reads (interleaved /1, /2 records)")
	fs.IntVar(&c.insert, "insert", 400, "paired mode: mean insert size")
	fs.Float64Var(&c.stdInsert, "stdinsert", 20, "paired mode: insert-size standard deviation")
	fs.StringVar(&c.out, "out", "reads.fasta", "output FASTA of reads (not a .fastq/.fq name)")
	fs.StringVar(&c.ref, "ref", "", "optional output FASTA of the reference genome (not a .fastq/.fq name)")
	seed := fs.Uint64("seed", 7, "deterministic seed")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: readgen -out reads.fasta [flags]")
		fmt.Fprintln(stderr, "\nexit codes: 0 success; 1 output write failure; 2 usage error")
		fmt.Fprintln(stderr, "\nflags:")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		// The FlagSet already printed the one-line error and usage.
		return exitUsage
	}
	if err := c.validate(); err != nil {
		fmt.Fprintln(stderr, "readgen:", err)
		return exitUsage
	}

	rng := stats.NewRNG(*seed)
	var g *genome.Sequence
	if c.repeats > 0 {
		g = genome.GenerateRepetitiveGenome(c.genomeLen, repeatLen, c.repeats, rng)
	} else {
		g = genome.GenerateGenome(c.genomeLen, rng)
	}

	// Stream the reads straight to disk one record at a time: the dataset is
	// never materialised in memory, so -reads can exceed what a slurped
	// []Record would hold.
	written, err := streamReads(c.out, g, c, rng)
	if err != nil {
		fmt.Fprintln(stderr, "readgen:", err)
		return exitRuntime
	}
	if c.ref != "" {
		if err := writeFASTA(c.ref, []genome.Record{{Name: "reference", Seq: g}}); err != nil {
			fmt.Fprintln(stderr, "readgen:", err)
			return exitRuntime
		}
	}
	fmt.Fprintf(stdout, "wrote %d reads of %d bp (genome %d bp, %.1fx coverage, paired=%v) to %s\n",
		written, c.readLen, c.genomeLen,
		float64(written)*float64(c.readLen)/float64(c.genomeLen), c.paired, c.out)
	return exitOK
}

// streamReads samples reads and writes each record as it is drawn,
// returning the number of records written.
func streamReads(path string, g *genome.Sequence, c config, rng *stats.RNG) (int, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	w := genome.NewRecordWriter(f)
	written := 0
	if c.paired {
		sampler := genome.NewPairedSampler(g, c.readLen, c.insert, c.stdInsert, c.errRate, rng)
		for i := 0; i < c.reads/2; i++ {
			p := sampler.Next()
			if err := w.Write(genome.Record{Name: fmt.Sprintf("read_%d/1", i), Seq: p.R1}); err != nil {
				return written, err
			}
			if err := w.Write(genome.Record{Name: fmt.Sprintf("read_%d/2", i), Seq: p.R2}); err != nil {
				return written, err
			}
			written += 2
		}
	} else {
		sampler := genome.NewReadSampler(g, c.readLen, c.errRate, rng)
		for i := 0; i < c.reads; i++ {
			if err := w.Write(genome.Record{Name: fmt.Sprintf("read_%d", i), Seq: sampler.Next()}); err != nil {
				return written, err
			}
			written++
		}
	}
	if err := w.Flush(); err != nil {
		return written, err
	}
	return written, f.Sync()
}

func writeFASTA(path string, records []genome.Record) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := genome.WriteFASTA(f, records); err != nil {
		return err
	}
	return f.Sync()
}
