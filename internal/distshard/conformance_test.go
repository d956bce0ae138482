package distshard

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pimassembler/internal/assembly"
	"pimassembler/internal/engine"
	"pimassembler/internal/genome"
	"pimassembler/internal/metrics"
	"pimassembler/internal/shard"
	"pimassembler/internal/stats"
)

// workload samples a deterministic read set from a synthetic genome.
func workload(seed uint64, genomeLen, readLen, n int, errRate float64) []*genome.Sequence {
	rng := stats.NewRNG(seed)
	ref := genome.GenerateGenome(genomeLen, rng)
	return genome.NewReadSampler(ref, readLen, errRate, rng).Sample(n)
}

// fastaBytes serialises reads as the FASTA stream the partitioner ingests.
func fastaBytes(t *testing.T, reads []*genome.Sequence) []byte {
	t.Helper()
	var buf bytes.Buffer
	rw := genome.NewRecordWriter(&buf)
	for i, r := range reads {
		if err := rw.Write(genome.Record{Name: fmt.Sprintf("r%d", i), Seq: r}); err != nil {
			t.Fatal(err)
		}
	}
	if err := rw.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// fastqBytes serialises reads as four-line FASTQ records (uniform quality —
// the pipeline only consumes the bases).
func fastqBytes(t *testing.T, reads []*genome.Sequence) []byte {
	t.Helper()
	var b strings.Builder
	for i, r := range reads {
		s := r.String()
		fmt.Fprintf(&b, "@r%d\n%s\n+\n%s\n", i, s, strings.Repeat("I", len(s)))
	}
	return []byte(b.String())
}

// partition spills data under the test's temp dir.
func partition(t *testing.T, data []byte, format genome.Format, shards int) *shard.Spill {
	t.Helper()
	sp, err := shard.Partition(context.Background(), bytes.NewReader(data), format,
		shard.SpillConfig{Shards: shards, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// assertSameContigs requires got's contig set to be byte-identical to
// want's: same count, same order, same sequences.
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

// TestCrossProcessConformance is the distributed identity property, the
// cross-process mirror of the shard package's TestSpillMatchesInMemory:
// for shard/worker counts {1, 2, 8} × {FASTA, FASTQ} × k ∈ {4, 16}, the
// multi-process merged contigs are byte-identical to the in-process
// out-of-core run over the same spill AND to the unsharded reference, and
// the summed workload counters are partition-invariant. Workers are real
// child processes (this test binary re-executed via TestMain), so the
// whole frame protocol — handshake, dispatch, report decode, merge — is on
// the identity path.
func TestCrossProcessConformance(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns 11 worker-process fleets")
	}
	type sample struct {
		format genome.Format
		data   []byte
	}
	reads := workload(51, 3_000, 64, 96, 0.01)
	samples := []sample{
		{genome.FormatFASTA, fastaBytes(t, reads)},
		{genome.FormatFASTQ, fastqBytes(t, reads)},
	}
	cmd := helperCmd(t)
	env := helperEnv(t, "worker", false)

	for _, ksize := range []int{4, 16} {
		opts := engine.Options{Options: assembly.Options{K: ksize}}
		sw, err := engine.Lookup("software")
		if err != nil {
			t.Fatal(err)
		}
		base, err := sw.Assemble(context.Background(), genome.NewSliceSource(reads), opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range samples {
			for _, shards := range []int{1, 2, 8} {
				label := fmt.Sprintf("k=%d %v shards=%d", ksize, s.format, shards)
				sp := partition(t, s.data, s.format, shards)
				inProc, err := shard.AssembleSpill(context.Background(), sp, shard.Plan{Opts: opts})
				if err != nil {
					t.Fatalf("%s in-proc: %v", label, err)
				}
				dist, err := Assemble(context.Background(), sp, Config{
					WorkerProcs: shards, // 1, 2, and 8 worker processes
					WorkerCmd:   cmd,
					Env:         env,
					Opts:        opts,
				})
				if err != nil {
					t.Fatalf("%s dist: %v", label, err)
				}
				assertSameContigs(t, label+" dist vs in-proc spill", inProc.Report, dist.Report)
				assertSameContigs(t, label+" dist vs unsharded", base, dist.Report)
				if got, want := dist.Report.Counts.ReadCount, base.Counts.ReadCount; got != want {
					t.Errorf("%s: merged ReadCount %d, want %d", label, got, want)
				}
				if got, want := dist.Report.Counts.TotalKmers, base.Counts.TotalKmers; got != want {
					t.Errorf("%s: merged TotalKmers %.0f, want %.0f", label, got, want)
				}
				sp.Close()
			}
		}
	}
	assertNoChildren(t)
}

// TestDistHeterogeneousEngines mirrors the shard package's mixed-engine
// spill test across processes: software and pim shards dispatch to worker
// processes, the functional aggregates survive the wire, and the merged
// contigs still match the unsharded reference.
func TestDistHeterogeneousEngines(t *testing.T) {
	reads := workload(52, 1_500, 80, 60, 0)
	opts := engine.Options{Options: assembly.Options{K: 16}}
	sw, err := engine.Lookup("software")
	if err != nil {
		t.Fatal(err)
	}
	base, err := sw.Assemble(context.Background(), genome.NewSliceSource(reads), opts)
	if err != nil {
		t.Fatal(err)
	}
	sp := partition(t, fastaBytes(t, reads), genome.FormatFASTA, 4)
	defer sp.Close()
	c := metrics.NewCounters()
	res, err := Assemble(context.Background(), sp, Config{
		WorkerProcs: 2,
		WorkerCmd:   helperCmd(t),
		Env:         helperEnv(t, "worker", false),
		Engines:     []string{"software", "pim"},
		Opts:        opts,
		Counters:    c,
	})
	if err != nil {
		t.Fatal(err)
	}
	assertSameContigs(t, "dist software+pim", base, res.Report)
	if res.Commands <= 0 {
		t.Error("functional shard aggregates lost crossing the wire")
	}
	if got := c.Get("dist.jobs"); got != 4 {
		t.Errorf("dist.jobs = %d, want 4", got)
	}
	if got := c.Get("dist.results"); got != 4 {
		t.Errorf("dist.results = %d, want 4", got)
	}
	if got := c.Get("dist.workers"); got != 2 {
		t.Errorf("dist.workers = %d, want 2", got)
	}
	assertNoChildren(t)
}

// TestEmptyWorkerCmd pins that a run naming no worker binary fails before
// any process starts: there is no implicit same-binary worker mode.
func TestEmptyWorkerCmd(t *testing.T) {
	sp := partition(t, fastaBytes(t, workload(53, 500, 40, 8, 0)), genome.FormatFASTA, 2)
	defer sp.Close()
	c := metrics.NewCounters()
	_, err := Assemble(context.Background(), sp, Config{
		WorkerProcs: 2,
		Opts:        engine.Options{Options: assembly.Options{K: 16}},
		Counters:    c,
	})
	if err == nil || !strings.Contains(err.Error(), "WorkerCmd") {
		t.Fatalf("empty WorkerCmd: err = %v, want one naming WorkerCmd", err)
	}
	if got := c.Get("dist.workers"); got != 0 {
		t.Errorf("dist.workers = %d, want 0", got)
	}
	assertNoChildren(t)
}

// TestDistValidation covers the before-any-spawn error paths: a nil spill,
// an unknown engine, and a cancelled context all fail without launching a
// single worker process.
func TestDistValidation(t *testing.T) {
	if _, err := Assemble(context.Background(), nil, Config{}); err == nil {
		t.Error("nil spill accepted")
	}
	sp := partition(t, fastaBytes(t, workload(53, 500, 40, 8, 0)), genome.FormatFASTA, 2)
	defer sp.Close()
	if _, err := Assemble(context.Background(), sp, Config{Engines: []string{"warp-drive"}}); err == nil {
		t.Error("unknown engine accepted")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Assemble(ctx, sp, Config{
		WorkerCmd: helperCmd(t), Env: helperEnv(t, "worker", false),
		Opts: engine.Options{Options: assembly.Options{K: 16}},
	}); err == nil {
		t.Error("cancelled run succeeded")
	}
	assertNoChildren(t)
	// The spill itself survives failed runs and closes cleanly.
	dir := filepath.Dir(sp.Path(0))
	if err := sp.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("spill dir survived Close (stat err %v)", err)
	}
}
