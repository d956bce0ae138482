package distshard

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"pimassembler/internal/assembly"
	"pimassembler/internal/engine"
	"pimassembler/internal/genome"
	"pimassembler/internal/jobqueue"
	"pimassembler/internal/metrics"
	"pimassembler/internal/shard"
)

// contigText renders a report's contigs as the bytes a FASTA writer would
// carry: one sequence per line, in order.
func contigText(rep *engine.Report) string {
	var b strings.Builder
	for _, c := range rep.Contigs {
		b.WriteString(c.Seq.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// shardReadCounts lists each shard's ReadCount in shard order.
func shardReadCounts(res *shard.Result) []int64 {
	out := make([]int64, len(res.PerShard))
	for i, rep := range res.PerShard {
		out[i] = rep.Counts.ReadCount
	}
	return out
}

// TestCrossDriverEquivalence pushes one read set through every driver of
// the shared dispatch loop — in-memory, in-process spill, and worker
// processes (1 and 2) — and requires one answer: the same contig bytes, the
// same engine per shard, the same reads per shard, the same merged counts.
// Read counts divide evenly by the shard count, so the contiguous in-memory
// split and the round-robin spill give every shard the same number of reads
// (not the same reads: AvgProbes, a per-shard table statistic, is compared
// only between the drivers that share the spill partition).
func TestCrossDriverEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a dozen worker-process fleets")
	}
	cases := []struct {
		name    string
		reads   int
		shards  int
		engines []string
	}{
		{"homogeneous", 96, 4, nil},
		{"heterogeneous", 64, 4, []string{"software", "pim"}},
		{"fewer-reads-than-shards", 3, 8, []string{"software", "pim"}},
	}
	formats := []struct {
		format genome.Format
		encode func(*testing.T, []*genome.Sequence) []byte
	}{
		{genome.FormatFASTA, fastaBytes},
		{genome.FormatFASTQ, fastqBytes},
	}
	ctx := context.Background()
	opts := engine.Options{Options: assembly.Options{K: 16}}
	for _, tc := range cases {
		reads := workload(71, 1_500, 72, tc.reads, 0)
		for _, f := range formats {
			t.Run(fmt.Sprintf("%s/%v", tc.name, f.format), func(t *testing.T) {
				plan := shard.Plan{Shards: tc.shards, Engines: tc.engines, Opts: opts}
				mem, err := shard.Assemble(ctx, reads, plan)
				if err != nil {
					t.Fatal(err)
				}
				sp := partition(t, f.encode(t, reads), f.format, tc.shards)
				defer sp.Close()
				spill, err := shard.AssembleSpill(ctx, sp, plan)
				if err != nil {
					t.Fatal(err)
				}
				runs := map[string]*shard.Result{"spill": spill}
				for _, procs := range []int{1, 2} {
					res, err := Assemble(ctx, sp, Config{
						WorkerProcs: procs,
						WorkerCmd:   helperCmd(t),
						Env:         helperEnv(t, "worker", false),
						Engines:     tc.engines,
						Opts:        opts,
					})
					if err != nil {
						t.Fatalf("%d procs: %v", procs, err)
					}
					runs[fmt.Sprintf("dist-%d", procs)] = res
				}

				for name, got := range runs {
					if contigText(got.Report) != contigText(mem.Report) {
						t.Errorf("%s: contig bytes differ from the in-memory run", name)
					}
					if !reflect.DeepEqual(got.Engines, mem.Engines) {
						t.Errorf("%s: engines %v, in-memory %v", name, got.Engines, mem.Engines)
					}
					if g, w := shardReadCounts(got), shardReadCounts(mem); !reflect.DeepEqual(g, w) {
						t.Errorf("%s: per-shard reads %v, in-memory %v", name, g, w)
					}
					g, w := *got.Report.Counts, *mem.Report.Counts
					g.AvgProbes, w.AvgProbes = 0, 0
					if g != w {
						t.Errorf("%s: merged counts\n got %+v\nwant %+v", name, g, w)
					}
					if *got.Report.Counts != *spill.Report.Counts {
						t.Errorf("%s: merged counts differ from the in-process spill run:\n got %+v\nwant %+v",
							name, *got.Report.Counts, *spill.Report.Counts)
					}
				}
			})
		}
	}
	assertNoChildren(t)
}

// flakyEngine fails its first attempt with a transient error and then runs
// the software engine: the in-process twin of the "die" helper process.
type flakyEngine struct{ calls *atomic.Int64 }

func (flakyEngine) Name() string     { return "software" }
func (flakyEngine) Describe() string { return "software, after one transient failure" }
func (e flakyEngine) Assemble(ctx context.Context, src genome.ReadSource, opts engine.Options) (*engine.Report, error) {
	if e.calls.Add(1) == 1 {
		return nil, jobqueue.MarkTransient(fmt.Errorf("injected fault"))
	}
	sw, err := engine.Lookup("software")
	if err != nil {
		return nil, err
	}
	return sw.Assemble(ctx, src, opts)
}

// TestRetryParity pins that there is one retry loop: one injected transient
// failure costs the same attempts and retries whether the shard runs in this
// process or in a worker, and the merged contigs are those of a clean run.
func TestRetryParity(t *testing.T) {
	sp, base, opts := faultFixture(t)
	defer sp.Close()
	retry := jobqueue.RetryPolicy{MaxAttempts: 3}

	reg := engine.NewRegistry()
	if err := reg.Register(flakyEngine{calls: new(atomic.Int64)}); err != nil {
		t.Fatal(err)
	}
	inProc := metrics.NewCounters()
	res, err := shard.AssembleSpill(context.Background(), sp, shard.Plan{
		Opts: opts, Registry: reg, Workers: 1, Retry: retry, Counters: inProc,
	})
	if err != nil {
		t.Fatal(err)
	}
	assertSameContigs(t, "in-process retry", base, res.Report)

	dist := metrics.NewCounters()
	res, err = Assemble(context.Background(), sp, Config{
		WorkerProcs: 1,
		WorkerCmd:   helperCmd(t),
		Env:         helperEnv(t, "die", true),
		Opts:        opts,
		Retry:       retry,
		Counters:    dist,
	})
	if err != nil {
		t.Fatal(err)
	}
	assertSameContigs(t, "cross-process retry", base, res.Report)
	assertNoChildren(t)

	for _, name := range []string{"jobs.submitted", "jobs.attempts", "jobs.retries", "jobs.done", "jobs.failed"} {
		if got, want := dist.Get(name), inProc.Get(name); got != want {
			t.Errorf("%s: %d across processes, %d in process", name, got, want)
		}
	}
	if got := inProc.Get("jobs.retries"); got != 1 {
		t.Errorf("jobs.retries = %d, want exactly the one injected fault", got)
	}
	for name, want := range map[string]int64{"dist.jobs": 3, "dist.retries": 1, "dist.respawns": 1, "dist.workers": 2, "dist.results": 3} {
		if got := dist.Get(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}
