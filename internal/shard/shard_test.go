package shard_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pimassembler/internal/assembly"
	"pimassembler/internal/engine"
	"pimassembler/internal/genome"
	"pimassembler/internal/jobqueue"
	"pimassembler/internal/shard"
	"pimassembler/internal/stats"
)

// workload builds a deterministic read set.
func workload(seed uint64, genomeLen, readLen, n int, errRate float64) []*genome.Sequence {
	rng := stats.NewRNG(seed)
	ref := genome.GenerateGenome(genomeLen, rng)
	return genome.NewReadSampler(ref, readLen, errRate, rng).Sample(n)
}

func TestSplit(t *testing.T) {
	reads := workload(1, 500, 40, 10, 0)
	cases := []struct {
		n     int
		sizes []int
	}{
		{1, []int{10}},
		{3, []int{3, 3, 4}},
		{4, []int{2, 3, 2, 3}},
		{10, []int{1, 1, 1, 1, 1, 1, 1, 1, 1, 1}},
		{25, []int{1, 1, 1, 1, 1, 1, 1, 1, 1, 1}}, // clamped to len(reads)
		{0, []int{10}},                            // clamped to 1
		{-2, []int{10}},
	}
	for _, c := range cases {
		got := shard.Split(reads, c.n)
		if len(got) != len(c.sizes) {
			t.Fatalf("Split(%d): %d shards, want %d", c.n, len(got), len(c.sizes))
		}
		total := 0
		for i, sh := range got {
			if len(sh) != c.sizes[i] {
				t.Errorf("Split(%d) shard %d: %d reads, want %d", c.n, i, len(sh), c.sizes[i])
			}
			total += len(sh)
		}
		if total != len(reads) {
			t.Errorf("Split(%d) covers %d reads, want %d", c.n, total, len(reads))
		}
		// Concatenation in shard order is the input order (no reshuffling).
		i := 0
		for _, sh := range got {
			for _, r := range sh {
				if r != reads[i] {
					t.Fatalf("Split(%d): read %d out of order", c.n, i)
				}
				i++
			}
		}
	}
	if shard.Split(nil, 4) != nil {
		t.Error("Split of an empty read set should be nil")
	}
}

func TestAssembleErrors(t *testing.T) {
	ctx := context.Background()
	if _, err := shard.Assemble(ctx, nil, shard.Plan{Shards: 2}); err == nil {
		t.Error("no-reads run succeeded")
	}
	reads := workload(2, 800, 50, 20, 0)
	if _, err := shard.Assemble(ctx, reads, shard.Plan{Shards: 2, Engines: []string{"no-such-engine"}}); err == nil {
		t.Error("unknown engine accepted")
	}
	// A failing shard names its index and engine. One worker, so the shards
	// run in order and shard 0 is the first to fail (with more, it is
	// whichever failed first: its failure cancels the others).
	reg := engine.NewRegistry()
	boom := errors.New("boom")
	if err := reg.Register(failingEngine{err: boom}); err != nil {
		t.Fatal(err)
	}
	_, err := shard.Assemble(ctx, reads, shard.Plan{
		Shards: 3, Engines: []string{"failing"}, Registry: reg, Workers: 1,
		Opts: engine.Options{Options: assembly.Options{K: 16}},
	})
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the engine failure", err)
	}
	if !strings.Contains(err.Error(), "shard 0") || !strings.Contains(err.Error(), "failing") {
		t.Errorf("err %q does not name the shard and engine", err)
	}
}

type failingEngine struct{ err error }

func (failingEngine) Name() string     { return "failing" }
func (failingEngine) Describe() string { return "always fails" }
func (e failingEngine) Assemble(context.Context, genome.ReadSource, engine.Options) (*engine.Report, error) {
	return nil, e.err
}

// slowEngine counts its runs and holds each one until its context ends —
// or, if nothing ever cancels it, for far longer than the test should take.
type slowEngine struct{ started, finished *atomic.Int64 }

func (slowEngine) Name() string     { return "slow" }
func (slowEngine) Describe() string { return "runs until cancelled" }
func (e slowEngine) Assemble(ctx context.Context, _ genome.ReadSource, _ engine.Options) (*engine.Report, error) {
	e.started.Add(1)
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-time.After(30 * time.Second):
		e.finished.Add(1)
		return &engine.Report{Engine: "slow", Family: engine.FamilySoftware}, nil
	}
}

// TestFirstFailureCancelsSiblings pins the shared loop's failure rule for
// both in-process drivers: one shard that fails for good stops the shards
// still running or queued, and the error names that shard and its engine —
// not a sibling's "context canceled".
func TestFirstFailureCancelsSiblings(t *testing.T) {
	reads := workload(4, 1_200, 50, 40, 0)
	opts := engine.Options{Options: assembly.Options{K: 16}}
	boom := errors.New("boom")
	drivers := map[string]func(shard.Plan) error{
		"memory": func(plan shard.Plan) error {
			_, err := shard.Assemble(context.Background(), reads, plan)
			return err
		},
		"spill": func(plan shard.Plan) error {
			sp, err := shard.Partition(context.Background(), bytes.NewReader(fastaBytes(t, reads)),
				genome.FormatFASTA, shard.SpillConfig{Shards: plan.Shards, Dir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			defer sp.Close()
			_, err = shard.AssembleSpill(context.Background(), sp, plan)
			return err
		},
	}
	for name, drive := range drivers {
		t.Run(name, func(t *testing.T) {
			var started, finished atomic.Int64
			reg := engine.NewRegistry()
			for _, e := range []engine.Engine{failingEngine{err: boom}, slowEngine{&started, &finished}} {
				if err := reg.Register(e); err != nil {
					t.Fatal(err)
				}
			}
			begin := time.Now()
			// Shard 1 of 8 fails; two workers, so most slow shards are
			// still queued behind the first ones when it does.
			err := drive(shard.Plan{
				Shards:   8,
				Engines:  []string{"slow", "failing", "slow", "slow", "slow", "slow", "slow", "slow"},
				Registry: reg, Workers: 2, Opts: opts,
				Retry: jobqueue.RetryPolicy{MaxAttempts: 3},
			})
			if !errors.Is(err, boom) || errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want the engine failure itself", err)
			}
			if !strings.Contains(err.Error(), "shard 1 (engine failing)") {
				t.Errorf("err %q does not name the failed shard and engine", err)
			}
			if n := finished.Load(); n != 0 {
				t.Errorf("%d slow shards ran to completion after the failure", n)
			}
			if n := started.Load(); n >= 7 {
				t.Errorf("all %d slow shards started: the queued ones were not cancelled", n)
			}
			if d := time.Since(begin); d > 20*time.Second {
				t.Errorf("run took %v: siblings were waited for, not cancelled", d)
			}
		})
	}
}

// panicEngine panics after a pause long enough for a sibling shard to be
// waiting in the resident-read gate.
type panicEngine struct{}

func (panicEngine) Name() string     { return "panicky" }
func (panicEngine) Describe() string { return "panics mid-run" }
func (panicEngine) Assemble(context.Context, genome.ReadSource, engine.Options) (*engine.Report, error) {
	time.Sleep(50 * time.Millisecond)
	panic("engine exploded")
}

// TestEnginePanicReachesCaller pins the dispatch loop's panic path: a shard
// whose engine panics while a sibling waits in the resident-read gate
// re-raises the panic on the caller, returning its reservation on the way,
// so the sibling is not left blocked and the run does not hang. The gate
// holds one shard at a time, which only the spill path reserves against.
func TestEnginePanicReachesCaller(t *testing.T) {
	reads := workload(5, 800, 50, 20, 0)
	sp, err := shard.Partition(context.Background(), bytes.NewReader(fastaBytes(t, reads)),
		genome.FormatFASTA, shard.SpillConfig{Shards: 2, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	reg := engine.NewRegistry()
	if err := reg.Register(panicEngine{}); err != nil {
		t.Fatal(err)
	}
	recovered := make(chan any, 1)
	go func() {
		defer func() { recovered <- recover() }()
		shard.AssembleSpill(context.Background(), sp, shard.Plan{
			Engines: []string{"panicky"}, Registry: reg, Workers: 2, MaxResidentReads: 1,
			Opts: engine.Options{Options: assembly.Options{K: 16}},
		})
	}()
	select {
	case r := <-recovered:
		if r != "engine exploded" {
			t.Fatalf("recovered %v, want the engine's panic", r)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a panicking engine hung the dispatch loop")
	}
}

func TestAssembleCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	reads := workload(3, 800, 50, 20, 0)
	_, err := shard.Assemble(ctx, reads, shard.Plan{
		Shards: 2, Opts: engine.Options{Options: assembly.Options{K: 16}},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestHeterogeneousEngines runs a software+functional engine mix and an
// all-functional split and checks the round-robin assignment, the functional
// aggregates, and that the merged contigs still match the unsharded software
// reference (the cross-engine conformance property extended to shards).
func TestHeterogeneousEngines(t *testing.T) {
	reads := workload(4, 2_000, 101, 120, 0)
	opts := engine.Options{Options: assembly.Options{K: 16}, Subarrays: 16}

	sw, err := engine.Lookup("software")
	if err != nil {
		t.Fatal(err)
	}
	base, err := sw.Assemble(context.Background(), genome.NewSliceSource(reads), opts)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		shards      int
		engines     []string
		wantEngines []string
		wantLabel   string
	}{
		{4, []string{"software", "pim"}, []string{"software", "pim", "software", "pim"}, "software+pim"},
		{2, []string{"pim"}, []string{"pim", "pim"}, "pim"},
	} {
		res, err := shard.Assemble(context.Background(), reads, shard.Plan{
			Shards: tc.shards, Engines: tc.engines, Opts: opts,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Engines, tc.wantEngines) {
			t.Errorf("%s: shard engines %v, want %v", tc.wantLabel, res.Engines, tc.wantEngines)
		}
		if res.Commands <= 0 || res.EnergyPJ <= 0 || res.MakespanNS <= 0 {
			t.Errorf("%s: functional aggregates not populated: commands=%d energy=%.1f makespan=%.1f",
				tc.wantLabel, res.Commands, res.EnergyPJ, res.MakespanNS)
		}
		// Makespan is a max, energy a sum: the recorded makespan must be the
		// largest per-shard one.
		var maxSeen float64
		for _, rep := range res.PerShard {
			if rep.Functional != nil && rep.Functional.Makespan.MakespanNS > maxSeen {
				maxSeen = rep.Functional.Makespan.MakespanNS
			}
		}
		if res.MakespanNS != maxSeen {
			t.Errorf("%s: MakespanNS = %.1f, want per-shard max %.1f", tc.wantLabel, res.MakespanNS, maxSeen)
		}
		assertSameContigs(t, tc.wantLabel, base, res.Report)
		if !strings.Contains(res.Report.Engine, tc.wantLabel) {
			t.Errorf("%s: merged engine label %q", tc.wantLabel, res.Report.Engine)
		}
	}
}

// TestAnalyticalShards: analytical engines price each shard; the merged
// cost is max-over-shards time and summed energy, and the merged contigs
// (produced by the analytical engines' embedded reference runs) match.
func TestAnalyticalShards(t *testing.T) {
	reads := workload(5, 1_500, 80, 60, 0)
	opts := engine.Options{Options: assembly.Options{K: 16}}
	res, err := shard.Assemble(context.Background(), reads, shard.Plan{
		Shards: 3, Engines: []string{"pim-assembler"}, Opts: opts,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.CostTotalS <= 0 || res.CostEnergyJ <= 0 {
		t.Fatalf("analytical aggregates not populated: %.3g s, %.3g J", res.CostTotalS, res.CostEnergyJ)
	}
	var wantMax, wantEnergy float64
	for _, rep := range res.PerShard {
		if rep.Cost == nil {
			t.Fatal("analytical shard without Cost block")
		}
		if tot := rep.Cost.TotalS(); tot > wantMax {
			wantMax = tot
		}
		wantEnergy += rep.Cost.EnergyJ()
	}
	if res.CostTotalS != wantMax || res.CostEnergyJ != wantEnergy {
		t.Errorf("cost aggregates %.6g/%.6g, want %.6g/%.6g",
			res.CostTotalS, res.CostEnergyJ, wantMax, wantEnergy)
	}
}

// assertSameContigs compares contig sequences (the deterministic merge
// contract: structure, not coverage).
func assertSameContigs(t *testing.T, label string, want, got *engine.Report) {
	t.Helper()
	if len(want.Contigs) != len(got.Contigs) {
		t.Fatalf("%s: %d contigs, want %d", label, len(got.Contigs), len(want.Contigs))
	}
	for i := range want.Contigs {
		if !want.Contigs[i].Seq.Equal(got.Contigs[i].Seq) {
			t.Fatalf("%s: contig %d differs:\n got %s\nwant %s", label, i,
				got.Contigs[i].Seq, want.Contigs[i].Seq)
		}
	}
}

func TestScaffoldAndQualityCarryThroughMerge(t *testing.T) {
	rng := stats.NewRNG(6)
	ref := genome.GenerateGenome(1_200, rng)
	reads := genome.NewReadSampler(ref, 80, 0, rng).Sample(90)
	opts := engine.Options{
		Options: assembly.Options{K: 16, Scaffold: true, MinOverlap: 12},
		Ref:     ref,
	}
	res, err := shard.Assemble(context.Background(), reads, shard.Plan{Shards: 3, Opts: opts})
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Scaffolds == nil {
		t.Error("merged report lost the stage-3 scaffolds")
	}
	if res.Report.Quality == nil {
		t.Error("merged report lost the quality block")
	}
}

func ExampleSplit() {
	reads := workload(7, 400, 40, 7, 0)
	for i, sh := range shard.Split(reads, 3) {
		fmt.Printf("shard %d: %d reads\n", i, len(sh))
	}
	// Output:
	// shard 0: 2 reads
	// shard 1: 2 reads
	// shard 2: 3 reads
}
