package shard_test

import (
	"context"
	"reflect"
	"testing"

	"pimassembler/internal/assembly"
	"pimassembler/internal/engine"
	"pimassembler/internal/genome"
	"pimassembler/internal/shard"
)

// TestOneShardByteIdentical pins the pass-through contract: a 1-shard run
// returns the software engine's report verbatim (same struct, field for
// field), so `-shards 1` CLI output is byte-identical to an unsharded run.
func TestOneShardByteIdentical(t *testing.T) {
	reads := workload(11, 2_000, 101, 150, 0.01)
	opts := engine.Options{Options: assembly.Options{K: 16}}

	sw, err := engine.Lookup("software")
	if err != nil {
		t.Fatal(err)
	}
	base, err := sw.Assemble(context.Background(), genome.NewSliceSource(reads), opts)
	if err != nil {
		t.Fatal(err)
	}

	res, err := shard.Assemble(context.Background(), reads, shard.Plan{Shards: 1, Opts: opts})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerShard) != 1 || res.Report != res.PerShard[0] {
		t.Fatal("1-shard Result.Report is not the shard's report verbatim")
	}
	if !reflect.DeepEqual(stripClocks(res.Report), stripClocks(base)) {
		t.Errorf("1-shard report differs from the unsharded software engine:\n got %+v\nwant %+v",
			res.Report, base)
	}
}

// stripClocks zeroes the wall-clock timings, the only legitimately
// non-deterministic Report field.
func stripClocks(r *engine.Report) engine.Report {
	c := *r
	c.Timings = nil
	return c
}

// TestShardCountInvariance is the tentpole property: for a random read set
// and every shard count k ∈ {1..8}, the merged contig sequences are
// byte-identical to the unsharded software baseline, and the summed
// workload OpCounts are invariant in k.
func TestShardCountInvariance(t *testing.T) {
	trials := []struct {
		name                         string
		seed                         uint64
		genomeLen, readLen, numReads int
		errRate                      float64
	}{
		{"clean reads", 21, 2_000, 101, 150, 0},
		{"erroneous reads", 22, 1_500, 80, 200, 0.01}, // tips/bubbles in the graph
		{"short genome", 23, 400, 60, 64, 0},
		{"reads barely above k", 24, 900, 18, 120, 0},
	}
	opts := engine.Options{Options: assembly.Options{K: 16}}
	for _, tr := range trials {
		t.Run(tr.name, func(t *testing.T) {
			reads := workload(tr.seed, tr.genomeLen, tr.readLen, tr.numReads, tr.errRate)
			sw, err := engine.Lookup("software")
			if err != nil {
				t.Fatal(err)
			}
			base, err := sw.Assemble(context.Background(), genome.NewSliceSource(reads), opts)
			if err != nil {
				t.Fatal(err)
			}
			for k := 1; k <= 8; k++ {
				res, err := shard.Assemble(context.Background(), reads, shard.Plan{Shards: k, Opts: opts})
				if err != nil {
					t.Fatalf("k=%d: %v", k, err)
				}
				assertSameContigs(t, tr.name, base, res.Report)
				if res.Commands != 0 || res.CostTotalS != 0 {
					t.Errorf("k=%d: software-only shards carry functional/analytical aggregates (%d commands, %g s)",
						k, res.Commands, res.CostTotalS)
				}
				c := res.Report.Counts
				if c == nil {
					t.Fatalf("k=%d: merged report has no counts", k)
				}
				if c.ReadCount != base.Counts.ReadCount {
					t.Errorf("k=%d: merged ReadCount %d, want %d", k, c.ReadCount, base.Counts.ReadCount)
				}
				if c.TotalKmers != base.Counts.TotalKmers {
					t.Errorf("k=%d: merged TotalKmers %.0f, want %.0f", k, c.TotalKmers, base.Counts.TotalKmers)
				}
				if c.DistinctKmers != base.Counts.DistinctKmers {
					t.Errorf("k=%d: merged DistinctKmers %.0f, want %.0f", k, c.DistinctKmers, base.Counts.DistinctKmers)
				}
				if c.Nodes != base.Counts.Nodes || c.Edges != base.Counts.Edges {
					t.Errorf("k=%d: merged graph %v nodes / %v edges, want %v / %v",
						k, c.Nodes, c.Edges, base.Counts.Nodes, base.Counts.Edges)
				}
				if c.ReadLen != base.Counts.ReadLen {
					t.Errorf("k=%d: merged ReadLen %d, want %d", k, c.ReadLen, base.Counts.ReadLen)
				}
			}
		})
	}
}

// TestWorkerCountInvariance: the merged report is bit-identical whatever
// the dispatch pool width — sharding inherits the parallel determinism
// contract end to end.
func TestWorkerCountInvariance(t *testing.T) {
	reads := workload(31, 2_000, 101, 150, 0)
	opts := engine.Options{Options: assembly.Options{K: 16}}
	var want *engine.Report
	for _, workers := range []int{1, 3, 8} {
		res, err := shard.Assemble(context.Background(), reads, shard.Plan{
			Shards: 5, Opts: opts, Workers: workers,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got := stripClocks(res.Report)
		if want == nil {
			w := got
			want = &w
			continue
		}
		if !reflect.DeepEqual(got, *want) {
			t.Errorf("workers=%d: merged report differs from workers=1 run", workers)
		}
	}
}
