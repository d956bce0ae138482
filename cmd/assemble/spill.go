package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"time"

	"pimassembler/internal/distshard"
	"pimassembler/internal/engine"
	"pimassembler/internal/genome"
	"pimassembler/internal/jobqueue"
	"pimassembler/internal/metrics"
	"pimassembler/internal/shard"
)

// spillPlanConfig carries the flag state for one out-of-core run.
type spillPlanConfig struct {
	dir           string
	shards        int
	maxResident   int
	engines       []string
	opts          engine.Options
	workers       int
	parallel      bool
	workerProcs   int
	workerTimeout time.Duration
	workerRetries int
}

// runSpill executes the out-of-core sharded path: stream the input into
// per-shard spill files, then run them through the one shard dispatch loop —
// in this process under a resident-read admission cap, or across worker
// processes — and merge. Everything on stdout is deterministic (spill sizes
// and eviction counts depend only on the input and the cap); the wall-clock
// spill/queue statistics go to stderr. Returns the merged report, the read
// count, and the exit code.
func runSpill(ctx context.Context, in string, cfg spillPlanConfig, stdout, stderr io.Writer) (*engine.Report, int64, int) {
	f, err := os.Open(in)
	if err != nil {
		fmt.Fprintln(stderr, "assemble:", err)
		return nil, 0, exitRuntime
	}
	counters := metrics.NewCounters()
	sp, err := shard.Partition(ctx, f, genome.DetectFormat(in), shard.SpillConfig{
		Shards:           cfg.shards,
		Dir:              cfg.dir,
		MaxResidentReads: cfg.maxResident,
		Counters:         counters,
	})
	f.Close()
	if err != nil {
		fmt.Fprintln(stderr, "assemble:", err)
		return nil, 0, exitRuntime
	}
	defer sp.Close()

	cap := cfg.maxResident
	if cap <= 0 {
		cap = shard.DefaultMaxResidentReads
	}
	fmt.Fprintf(stdout, "out-of-core: %d reads -> %d spill files (%d bytes, %d evictions), resident cap %d reads\n",
		sp.TotalReads(), sp.Shards(), sp.Bytes(), sp.Evictions(), cap)

	var res *shard.Result
	if cfg.workerProcs > 0 {
		fmt.Fprintf(stdout, "distributed: dispatching %d spill files across %d worker processes\n",
			sp.Shards(), cfg.workerProcs)
		res, err = distshard.Assemble(ctx, sp, distshard.Config{
			WorkerProcs: cfg.workerProcs,
			Engines:     cfg.engines,
			Opts:        cfg.opts,
			Timeout:     cfg.workerTimeout,
			Retry:       jobqueue.RetryPolicy{MaxAttempts: cfg.workerRetries + 1},
			Counters:    counters,
		})
	} else {
		res, err = shard.AssembleSpill(ctx, sp, shard.Plan{
			Engines:          cfg.engines,
			Opts:             cfg.opts,
			Workers:          cfg.workers,
			MaxResidentReads: cfg.maxResident,
			Counters:         counters,
		})
	}
	if err != nil {
		fmt.Fprintln(stderr, "assemble:", err)
		return nil, 0, exitRuntime
	}
	if len(res.PerShard) > 1 {
		shardReport(stdout, res)
	} else {
		report(stdout, res.Report, cfg.parallel)
	}
	fmt.Fprintf(stderr, "spill statistics (wall clock):\n%s", counters)
	return res.Report, sp.TotalReads(), exitOK
}
