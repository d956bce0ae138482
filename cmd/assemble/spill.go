package main

import (
	"context"
	"fmt"
	"io"
	"os"

	"pimassembler/internal/distshard"
	"pimassembler/internal/engine"
	"pimassembler/internal/genome"
	"pimassembler/internal/metrics"
	"pimassembler/internal/shard"
)

// runSpill executes the out-of-core sharded path: stream the input into
// plan.Shards spill files under dir, then run them through the one shard
// dispatch loop — across dist.WorkerProcs worker processes when that is
// positive, else in this process under the plan's resident-read admission
// cap — and merge. Everything on stdout is deterministic (spill sizes and
// eviction counts depend only on the input and the cap); the wall-clock
// spill/queue statistics go to stderr. Returns the merged report, the read
// count, and the exit code.
func runSpill(ctx context.Context, in, dir string, plan shard.Plan, dist distshard.Config, stdout, stderr io.Writer) (*engine.Report, int64, int) {
	f, err := os.Open(in)
	if err != nil {
		fmt.Fprintln(stderr, "assemble:", err)
		return nil, 0, exitRuntime
	}
	counters := metrics.NewCounters()
	plan.Counters = counters
	sp, err := shard.Partition(ctx, f, genome.DetectFormat(in), shard.SpillConfig{
		Shards:           plan.Shards,
		Dir:              dir,
		MaxResidentReads: plan.MaxResidentReads,
		Counters:         counters,
	})
	f.Close()
	if err != nil {
		fmt.Fprintln(stderr, "assemble:", err)
		return nil, 0, exitRuntime
	}
	defer sp.Close()

	cap := plan.MaxResidentReads
	if cap <= 0 {
		cap = shard.DefaultMaxResidentReads
	}
	fmt.Fprintf(stdout, "out-of-core: %d reads -> %d spill files (%d bytes, %d evictions), resident cap %d reads\n",
		sp.TotalReads(), sp.Shards(), sp.Bytes(), sp.Evictions(), cap)

	var res *shard.Result
	if dist.WorkerProcs > 0 {
		fmt.Fprintf(stdout, "distributed: dispatching %d spill files across %d worker processes\n",
			sp.Shards(), dist.WorkerProcs)
		dist.Engines, dist.Opts, dist.Counters = plan.Engines, plan.Opts, counters
		res, err = distshard.Assemble(ctx, sp, dist)
	} else {
		res, err = shard.AssembleSpill(ctx, sp, plan)
	}
	if err != nil {
		fmt.Fprintln(stderr, "assemble:", err)
		return nil, 0, exitRuntime
	}
	if len(res.PerShard) > 1 {
		shardReport(stdout, res)
	} else {
		report(stdout, res.Report)
	}
	fmt.Fprintf(stderr, "spill statistics (wall clock):\n%s", counters)
	return res.Report, sp.TotalReads(), exitOK
}
