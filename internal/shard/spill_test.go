package shard_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"testing"
	"time"

	"pimassembler/internal/assembly"
	"pimassembler/internal/engine"
	"pimassembler/internal/genome"
	"pimassembler/internal/metrics"
	"pimassembler/internal/shard"
)

// fastaBytes serialises reads as a FASTA stream, the form the spill
// partitioner ingests.
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

// TestPartitionRoundRobin pins the spill partitioner's contract: record j
// lands in shard j mod n, spill files re-read bit-identically in routing
// order, repeated runs produce identical bytes, and Close removes the
// spill directory.
func TestPartitionRoundRobin(t *testing.T) {
	reads := workload(31, 1_000, 60, 23, 0)
	data := fastaBytes(t, reads)
	const n = 4
	cfg := shard.SpillConfig{Shards: n, Dir: t.TempDir(), MaxResidentReads: 7}

	sp, err := shard.Partition(context.Background(), bytes.NewReader(data), genome.FormatFASTA, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sp.TotalReads() != int64(len(reads)) {
		t.Fatalf("TotalReads = %d, want %d", sp.TotalReads(), len(reads))
	}
	if sp.Evictions() == 0 {
		t.Error("a 23-read stream under a 7-read cap never evicted")
	}
	if sp.Bytes() <= 0 {
		t.Error("no spill bytes recorded")
	}
	for i := 0; i < n; i++ {
		src, err := sp.Source(i)
		if err != nil {
			t.Fatal(err)
		}
		got, err := genome.ReadAll(src)
		if err != nil {
			t.Fatal(err)
		}
		var want []*genome.Sequence
		for j := i; j < len(reads); j += n {
			want = append(want, reads[j])
		}
		if len(got) != len(want) || len(got) != sp.Count(i) {
			t.Fatalf("shard %d: %d reads, want %d (Count %d)", i, len(got), len(want), sp.Count(i))
		}
		for j := range got {
			if !got[j].Equal(want[j]) {
				t.Fatalf("shard %d read %d differs after the spill round-trip", i, j)
			}
		}
	}

	// Determinism: a second partition of the same stream is byte-identical.
	sp2, err := shard.Partition(context.Background(), bytes.NewReader(data), genome.FormatFASTA, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		a, err := os.ReadFile(sp.Path(i))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(sp2.Path(i))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("shard %d spill file differs between identical runs", i)
		}
	}
	sp2.Close()

	dir := filepath.Dir(sp.Path(0))
	if err := sp.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sp.Close(); err != nil {
		t.Fatalf("Close not idempotent: %v", err)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("spill dir %s survived Close (stat err %v)", dir, err)
	}
}

// TestPartitionCleanupOnError pins the no-leak guarantee: malformed input
// and cancellation both remove the spill directory before returning.
func TestPartitionCleanupOnError(t *testing.T) {
	parent := t.TempDir()
	bad := ">ok\nACGT\n>broken\nNOT-DNA!\n"
	if _, err := shard.Partition(context.Background(), strings.NewReader(bad), genome.FormatFASTA,
		shard.SpillConfig{Shards: 2, Dir: parent}); err == nil {
		t.Fatal("malformed input partitioned successfully")
	}
	ents, err := os.ReadDir(parent)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("spill directory leaked after error: %v", ents)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	data := fastaBytes(t, workload(32, 500, 40, 6, 0))
	if _, err := shard.Partition(ctx, bytes.NewReader(data), genome.FormatFASTA,
		shard.SpillConfig{Shards: 2, Dir: parent}); err == nil {
		t.Fatal("cancelled partition succeeded")
	}
	ents, err = os.ReadDir(parent)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("spill directory leaked after cancellation: %v", ents)
	}
}

// cancelAfterReader cancels a context partway through the stream: the
// first n Reads pass through, then the cancellation fires with the stream
// still mid-flight — spill files already created and partially written.
type cancelAfterReader struct {
	r      io.Reader
	n      int
	cancel context.CancelFunc
}

func (c *cancelAfterReader) Read(p []byte) (int, error) {
	if c.n == 0 {
		c.cancel()
	}
	c.n--
	// Small reads keep many records arriving after the cancellation point,
	// so the partitioner is genuinely mid-stream when it notices.
	if len(p) > 64 {
		p = p[:64]
	}
	return c.r.Read(p)
}

// TestPartitionMidStreamCancelCleanup pins the cleanup contract on the
// hardest path: cancellation firing while Partition is mid-stream, with
// spill files already open and partially written (evictions forced by a
// tiny resident cap). The partial spill directory must be gone before
// Partition returns — this is what lets every caller treat a Partition
// error as "nothing to clean up", including the multi-process coordinator
// whose workers would otherwise inherit dangling paths.
func TestPartitionMidStreamCancelCleanup(t *testing.T) {
	parent := t.TempDir()
	data := fastaBytes(t, workload(38, 1_000, 60, 40, 0))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Cancel roughly halfway through the byte stream.
	r := &cancelAfterReader{r: bytes.NewReader(data), n: len(data) / 64 / 2, cancel: cancel}
	_, err := shard.Partition(ctx, r, genome.FormatFASTA,
		shard.SpillConfig{Shards: 4, Dir: parent, MaxResidentReads: 3})
	if err == nil {
		t.Fatal("mid-stream-cancelled partition succeeded")
	}
	if !strings.Contains(err.Error(), context.Canceled.Error()) {
		t.Errorf("err = %v, want the context cancellation surfaced", err)
	}
	ents, err := os.ReadDir(parent)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		var names []string
		for _, e := range ents {
			names = append(names, e.Name())
		}
		t.Fatalf("partial spill state leaked after mid-stream cancellation: %v", names)
	}
}

// TestSpillCounters pins the metrics export: partitioning reports the
// spill.* series through the supplied Counters.
func TestSpillCounters(t *testing.T) {
	reads := workload(33, 800, 50, 17, 0)
	c := metrics.NewCounters()
	sp, err := shard.Partition(context.Background(), bytes.NewReader(fastaBytes(t, reads)), genome.FormatFASTA,
		shard.SpillConfig{Shards: 3, Dir: t.TempDir(), MaxResidentReads: 5, Counters: c})
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	for name, want := range map[string]int64{
		"spill.files":     3,
		"spill.records":   int64(len(reads)),
		"spill.bytes":     sp.Bytes(),
		"spill.evictions": sp.Evictions(),
	} {
		if got := c.Get(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if c.Get("spill.evictions") == 0 {
		t.Error("expected at least one eviction under a 5-read cap")
	}
}

// TestSpillMatchesInMemory is the out-of-core identity property: for shard
// counts k ∈ {1..8} with a resident cap 4x smaller than the input, the
// spill-backed merged contigs are byte-identical to both the in-memory
// sharded run and the unsharded reference, and the summed workload counts
// are invariant in the partition shape.
func TestSpillMatchesInMemory(t *testing.T) {
	reads := workload(34, 2_000, 101, 160, 0.01)
	data := fastaBytes(t, reads)
	opts := engine.Options{Options: assembly.Options{K: 16}}
	cap := len(reads) / 4 // input is 4x larger than the resident cap

	sw, err := engine.Lookup("software")
	if err != nil {
		t.Fatal(err)
	}
	base, err := sw.Assemble(context.Background(), genome.NewSliceSource(reads), opts)
	if err != nil {
		t.Fatal(err)
	}

	var spillBytes int64
	for k := 1; k <= 8; k++ {
		inMem, err := shard.Assemble(context.Background(), reads, shard.Plan{Shards: k, Opts: opts})
		if err != nil {
			t.Fatalf("shards=%d in-memory: %v", k, err)
		}
		sp, err := shard.Partition(context.Background(), bytes.NewReader(data), genome.FormatFASTA,
			shard.SpillConfig{Shards: k, Dir: t.TempDir(), MaxResidentReads: cap})
		if err != nil {
			t.Fatalf("shards=%d partition: %v", k, err)
		}
		spill, err := shard.AssembleSpill(context.Background(), sp, shard.Plan{
			Opts: opts, MaxResidentReads: cap,
		})
		if err != nil {
			t.Fatalf("shards=%d spill: %v", k, err)
		}
		assertSameContigs(t, fmt.Sprintf("shards=%d spill vs unsharded", k), base, spill.Report)
		assertSameContigs(t, fmt.Sprintf("shards=%d spill vs in-memory", k), inMem.Report, spill.Report)
		if sp.Evictions() == 0 {
			t.Errorf("shards=%d: no evictions despite cap %d < %d reads", k, cap, len(reads))
		}
		// The spill files hold the same records however many there are.
		if k == 1 {
			spillBytes = sp.Bytes()
		} else if sp.Bytes() != spillBytes {
			t.Errorf("shards=%d: %d spill bytes, want the %d of one shard", k, sp.Bytes(), spillBytes)
		}
		if got, want := spill.Report.Counts.ReadCount, base.Counts.ReadCount; got != want {
			t.Errorf("shards=%d: merged ReadCount %d, want %d", k, got, want)
		}
		if got, want := spill.Report.Counts.TotalKmers, base.Counts.TotalKmers; got != want {
			t.Errorf("shards=%d: merged TotalKmers %.0f, want %.0f", k, got, want)
		}
		sp.Close()
	}
}

// TestSpillHeterogeneousEngines runs the spill path on a software+pim
// engine mix and checks the merged contigs against the unsharded
// reference — the functional engine drains its shard, which the admission
// gate accounts for exactly.
func TestSpillHeterogeneousEngines(t *testing.T) {
	reads := workload(35, 1_500, 80, 120, 0)
	opts := engine.Options{Options: assembly.Options{K: 16}}
	sw, err := engine.Lookup("software")
	if err != nil {
		t.Fatal(err)
	}
	base, err := sw.Assemble(context.Background(), genome.NewSliceSource(reads), opts)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := shard.Partition(context.Background(), bytes.NewReader(fastaBytes(t, reads)), genome.FormatFASTA,
		shard.SpillConfig{Shards: 4, Dir: t.TempDir(), MaxResidentReads: 30})
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	res, err := shard.AssembleSpill(context.Background(), sp, shard.Plan{
		Engines: []string{"software", "pim"}, Opts: opts, MaxResidentReads: 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	assertSameContigs(t, "spill software+pim", base, res.Report)
	if res.Commands <= 0 {
		t.Error("functional shards produced no command-stream aggregates")
	}
}

// TestSpillFewerReadsThanShards pins the empty-tail contract: round-robin
// leaves trailing spill files empty when reads < shards, and those shards
// simply do not run — mirroring Split's clamp.
func TestSpillFewerReadsThanShards(t *testing.T) {
	reads := workload(36, 600, 50, 5, 0)
	sp, err := shard.Partition(context.Background(), bytes.NewReader(fastaBytes(t, reads)), genome.FormatFASTA,
		shard.SpillConfig{Shards: 8, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	res, err := shard.AssembleSpill(context.Background(), sp, shard.Plan{
		Opts: engine.Options{Options: assembly.Options{K: 16}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerShard) != 5 {
		t.Fatalf("%d shards ran, want 5 (one per read)", len(res.PerShard))
	}
	if res.Report.Counts.ReadCount != 5 {
		t.Fatalf("merged ReadCount = %d, want 5", res.Report.Counts.ReadCount)
	}
}

// TestAssembleSpillValidation covers the error paths: a nil/empty spill
// and an unknown engine both fail before any dispatch.
func TestAssembleSpillValidation(t *testing.T) {
	if _, err := shard.AssembleSpill(context.Background(), nil, shard.Plan{}); err == nil {
		t.Error("nil spill accepted")
	}
	sp, err := shard.Partition(context.Background(), bytes.NewReader(fastaBytes(t, workload(37, 500, 40, 8, 0))),
		genome.FormatFASTA, shard.SpillConfig{Shards: 2, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	if _, err := shard.AssembleSpill(context.Background(), sp, shard.Plan{Engines: []string{"warp-drive"}}); err == nil {
		t.Error("unknown engine accepted")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := shard.AssembleSpill(ctx, sp, shard.Plan{}); err == nil {
		t.Error("cancelled spill assembly succeeded")
	}
	// The spill survives failed assembly attempts and still closes cleanly.
	if err := sp.Close(); err != nil {
		t.Fatal(err)
	}
}

// fastaGen streams n synthetic FASTA records without materialising the
// stream — the shard-layer mirror of the genome package's bounded-memory
// generator (~113 bytes per record).
type fastaGen struct {
	records int
	next    int
	buf     []byte
}

func (g *fastaGen) Read(p []byte) (int, error) {
	for len(g.buf) < len(p) && g.next < g.records {
		g.buf = append(g.buf, fmt.Sprintf(">read_%d\n", g.next)...)
		g.buf = append(g.buf, strings.Repeat("ACGTGGTA", 13)...)
		g.buf = append(g.buf, '\n')
		g.next++
	}
	if len(g.buf) == 0 {
		return 0, io.EOF
	}
	n := copy(p, g.buf)
	g.buf = g.buf[n:]
	return n, nil
}

// TestShardSpillBoundedMemory is the out-of-core memory pin (mirror of the
// genome package's TestScanBoundedMemory): spilling and assembling a
// ~64 MiB synthetic stream under an 8192-read resident cap grows the heap
// by less than 16 MiB — resident memory tracks the cap, not the input.
func TestShardSpillBoundedMemory(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation behaviour and slows the 64 MiB stream ~10x; the bound is pinned in the regular test pass")
	}
	if testing.Short() {
		t.Skip("64 MiB stream in -short mode")
	}
	const records = 600_000 // ≈ 64 MiB of FASTA text
	const capReads = 8192   // the input is ~73x the resident cap

	// The pin is on resident memory, not GC-pacing transients: with the
	// default GOGC the sampler would also see reclaimable garbage between
	// collections. Tight pacing keeps HeapAlloc tracking live data.
	old := debug.SetGCPercent(20)
	defer debug.SetGCPercent(old)

	runtime.GC()
	var base runtime.MemStats
	runtime.ReadMemStats(&base)

	// Sample the heap concurrently: the partition and assembly loops have
	// no callback seam, so a background sampler records the peak.
	var (
		peakMu sync.Mutex
		peak   uint64
		stop   = make(chan struct{})
		done   = make(chan struct{})
	)
	go func() {
		defer close(done)
		var ms runtime.MemStats
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				runtime.ReadMemStats(&ms)
				peakMu.Lock()
				if ms.HeapAlloc > peak {
					peak = ms.HeapAlloc
				}
				peakMu.Unlock()
			}
		}
	}()

	sp, err := shard.Partition(context.Background(), &fastaGen{records: records}, genome.FormatFASTA,
		shard.SpillConfig{Shards: 8, Dir: t.TempDir(), MaxResidentReads: capReads})
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	if sp.TotalReads() != records {
		t.Fatalf("partitioned %d records, want %d", sp.TotalReads(), records)
	}
	if sp.Evictions() == 0 {
		t.Error("no evictions on a stream ~73x the resident cap")
	}

	opts := engine.Options{Options: assembly.Options{K: 16}}
	res, err := shard.AssembleSpill(context.Background(), sp, shard.Plan{
		Opts: opts, MaxResidentReads: capReads, Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	close(stop)
	<-done

	peakMu.Lock()
	growth := int64(peak) - int64(base.HeapAlloc)
	peakMu.Unlock()
	t.Logf("heap growth: %.1f MiB (baseline %.1f MiB) over a %d-record stream",
		float64(growth)/(1<<20), float64(base.HeapAlloc)/(1<<20), records)
	if growth > 16<<20 {
		t.Errorf("heap grew %.1f MiB while spill-assembling, want < 16 MiB", float64(growth)/(1<<20))
	}

	if got := res.Report.Counts.ReadCount; got != records {
		t.Fatalf("merged ReadCount = %d, want %d", got, records)
	}
	// Every record is the same 104-base sequence, so the merged contigs
	// must equal a direct assembly of that one read.
	single, err := genome.FromString(strings.Repeat("ACGTGGTA", 13))
	if err != nil {
		t.Fatal(err)
	}
	sw, err := engine.Lookup("software")
	if err != nil {
		t.Fatal(err)
	}
	want, err := sw.Assemble(context.Background(), genome.NewSliceSource([]*genome.Sequence{single}), opts)
	if err != nil {
		t.Fatal(err)
	}
	assertSameContigs(t, "64 MiB stream", want, res.Report)
}
