package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"pimassembler/internal/debruijn"
	"pimassembler/internal/engine"
	"pimassembler/internal/genome"
	"pimassembler/internal/jobqueue"
	"pimassembler/internal/metrics"
)

// runBatch executes a manifest of assembly jobs through the concurrent job
// queue and prints one unified Report summary per job, in manifest order.
// The stdout summary is deterministic for any worker count; the wall-clock
// queue statistics go to stderr. Returns exitOK only when every job is
// done.
func runBatch(path, defaultEngine string, defaults engine.Options, workers int, stdout, stderr io.Writer) int {
	specs, err := loadManifest(path, defaultEngine, defaults)
	if err != nil {
		fmt.Fprintln(stderr, "assemble:", err)
		return exitUsage
	}
	if len(specs) == 0 {
		fmt.Fprintf(stderr, "assemble: manifest %s holds no jobs\n", path)
		return exitUsage
	}

	counters := metrics.NewCounters()
	q := jobqueue.New(nil,
		jobqueue.WithWorkers(workers),
		jobqueue.WithCounters(counters))
	fmt.Fprintf(stdout, "batch: %d jobs on %d workers\n", len(specs), q.Workers())
	results := q.Run(context.Background(), specs)

	code := exitOK
	for _, r := range results {
		printJob(stdout, r)
		if r.State != jobqueue.StateDone {
			code = exitRuntime
		}
	}
	fmt.Fprintf(stderr, "queue statistics (wall clock):\n%s", counters)
	return code
}

// loadManifest parses the batch manifest: one job per line,
//
//	<input-path> <engine> [k=N] [mincount=N] [subarrays=N] [timeout=DUR] [retries=N] [backoff=DUR]
//
// with '#' starting a comment. Per-job keys override the command-line
// defaults; every line's options are validated before its input is opened,
// and the reads load eagerly, so a bad line or path fails the whole batch —
// named as path:line — before anything runs.
func loadManifest(path, defaultEngine string, defaults engine.Options) ([]jobqueue.Spec, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()

	var specs []jobqueue.Spec
	sc := bufio.NewScanner(f)
	for lineNo := 1; sc.Scan(); lineNo++ {
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		spec, err := parseManifestJob(fields, defaultEngine, defaults)
		if err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, lineNo, err)
		}
		specs = append(specs, spec)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return specs, nil
}

// parseManifestJob builds one job spec from its manifest fields.
func parseManifestJob(fields []string, defaultEngine string, defaults engine.Options) (jobqueue.Spec, error) {
	input := fields[0]
	spec := jobqueue.Spec{Name: input, Engine: defaultEngine, Opts: defaults}
	if len(fields) > 1 {
		spec.Engine = fields[1]
	}
	for _, kv := range fields[2:] {
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return spec, fmt.Errorf("malformed option %q (want key=value)", kv)
		}
		switch key {
		case "k":
			n, err := strconv.Atoi(val)
			if err != nil {
				return spec, fmt.Errorf("k: %w", err)
			}
			spec.Opts.K = n
		case "mincount":
			n, err := strconv.ParseUint(val, 10, 32)
			if err != nil {
				return spec, fmt.Errorf("mincount: %w", err)
			}
			spec.Opts.MinCount = uint32(n)
		case "subarrays":
			n, err := strconv.Atoi(val)
			if err != nil {
				return spec, fmt.Errorf("subarrays: %w", err)
			}
			spec.Opts.Subarrays = n
		case "timeout":
			d, err := time.ParseDuration(val)
			if err != nil {
				return spec, fmt.Errorf("timeout: %w", err)
			}
			spec.Timeout = d
		case "retries":
			n, err := strconv.Atoi(val)
			if err != nil {
				return spec, fmt.Errorf("retries: %w", err)
			}
			spec.Retry.MaxAttempts = n + 1 // n retries after the first attempt
		case "backoff":
			d, err := time.ParseDuration(val)
			if err != nil {
				return spec, fmt.Errorf("backoff: %w", err)
			}
			spec.Retry.Backoff = d
		default:
			return spec, fmt.Errorf("unknown option %q", key)
		}
	}
	if spec.Retry.MaxAttempts > 1 && spec.Retry.Backoff == 0 {
		spec.Retry.Backoff = 100 * time.Millisecond
	}
	if err := spec.Opts.Validate(); err != nil {
		return spec, err
	}
	reads, err := loadReads(input)
	if err != nil {
		return spec, err
	}
	spec.Source = genome.NewSliceSource(reads)
	return spec, nil
}

// printJob writes one job's unified Report summary. Only deterministic
// quantities are printed (no wall clocks), so a fixed manifest renders
// byte-identically for any worker count.
func printJob(w io.Writer, r jobqueue.Result) {
	head := fmt.Sprintf("job %d: %s engine=%s k=%d state=%s",
		r.Slot, r.Spec.Name, r.Spec.Engine, r.Spec.Opts.K, r.State)
	if r.State != jobqueue.StateDone {
		fmt.Fprintf(w, "%s attempts=%d err=%v\n", head, r.Attempts, r.Err)
		return
	}
	rep := r.Report
	fmt.Fprintf(w, "%s contigs=%d bases=%d N50=%d\n",
		head, len(rep.Contigs), debruijn.TotalBases(rep.Contigs), debruijn.N50(rep.Contigs))
	switch {
	case rep.Functional != nil:
		s := rep.Functional
		fmt.Fprintf(w, "  functional: %d commands, %.2f ms serial, makespan %.2f ms, %.2f µJ\n",
			s.Commands, s.SerialLatencyNS/1e6, s.Makespan.MakespanNS/1e6, s.EnergyPJ/1e6)
	case rep.Cost != nil:
		fmt.Fprintf(w, "  analytical: %s\n", rep.Cost)
	}
	if rep.Quality != nil {
		fmt.Fprintf(w, "  quality: %s\n", rep.Quality)
	}
}
