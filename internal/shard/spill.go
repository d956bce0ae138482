package shard

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"pimassembler/internal/genome"
	"pimassembler/internal/metrics"
)

// DefaultMaxResidentReads bounds how many decoded reads the out-of-core
// path holds in memory at once (partitioning buffers and in-flight shard
// admissions alike) when the caller does not set a cap. At ~101 bp per
// read it is a few MiB of sequence data.
const DefaultMaxResidentReads = 1 << 16

// SpillConfig configures a streaming spill partition.
type SpillConfig struct {
	// Shards is the spill-file count (values < 1 mean one).
	Shards int
	// Dir is the parent directory for the run's private spill directory
	// ("" = the system temp dir). It is created if missing.
	Dir string
	// MaxResidentReads caps the records buffered in memory across all
	// shards before an eviction flushes them to their spill files
	// (<= 0 = DefaultMaxResidentReads).
	MaxResidentReads int
	// Counters optionally receives the spill.* instrumentation
	// (spill.files, spill.records, spill.bytes, spill.evictions).
	Counters *metrics.Counters
}

// shards returns the effective shard count.
func (c SpillConfig) shards() int {
	if c.Shards < 1 {
		return 1
	}
	return c.Shards
}

// maxResident returns the effective resident-read cap.
func (c SpillConfig) maxResident() int {
	if c.MaxResidentReads <= 0 {
		return DefaultMaxResidentReads
	}
	return c.MaxResidentReads
}

// Spill is a completed streaming partition: n per-shard FASTA spill files
// in a private temp directory. Close removes the directory; it is
// idempotent and safe after errors.
type Spill struct {
	dir       string
	files     []string
	counts    []int
	bytes     int64
	evictions int64
	records   int64
	closed    bool
}

// Shards returns the spill-file count.
func (s *Spill) Shards() int { return len(s.files) }

// Count returns how many reads shard i holds.
func (s *Spill) Count(i int) int { return s.counts[i] }

// TotalReads returns the number of records partitioned.
func (s *Spill) TotalReads() int64 { return s.records }

// Bytes returns the total bytes written across all spill files.
func (s *Spill) Bytes() int64 { return s.bytes }

// Evictions returns how many times the resident-read cap forced the
// record buffers to disk mid-stream (the final flush is not an eviction).
func (s *Spill) Evictions() int64 { return s.evictions }

// Source opens shard i's spill file for streaming re-reads. The caller
// owns the returned source and should Close it (a fully drained source
// closes itself).
func (s *Spill) Source(i int) (*genome.FileSource, error) {
	return genome.OpenFileSource(s.files[i])
}

// Path returns shard i's spill-file path — the handle a shard job carries,
// and the one worker processes open themselves. The file is gone after
// Close.
func (s *Spill) Path(i int) string { return s.files[i] }

// Close removes the spill directory and every file in it.
func (s *Spill) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	return os.RemoveAll(s.dir)
}

// countingWriter counts bytes through to an underlying writer.
type countingWriter struct {
	w io.Writer
	n *int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	*c.n += int64(n)
	return n, err
}

// Partition streams the records of r (in the given format) into n
// per-shard FASTA spill files under a fresh private directory, routing
// record j to shard j mod n — deterministic in the input alone, no size or
// content sensitivity. Records buffer in memory only up to the
// resident-read cap; hitting it evicts every buffer to its spill file, so
// peak memory is the cap plus one record in flight, never the stream.
//
// Round-robin routing gives a different partition shape than Split's
// contiguous slicing, but the merge algebra (see the package comment) is
// partition-shape-invariant for count-independent options: every read
// lands in exactly one shard, and the union de Bruijn graph — hence the
// merged contig set — depends only on the read multiset.
//
// On any error (malformed input, I/O failure, ctx cancellation) the spill
// directory and everything in it are removed before returning.
func Partition(ctx context.Context, r io.Reader, format genome.Format, cfg SpillConfig) (*Spill, error) {
	n := cfg.shards()
	capReads := cfg.maxResident()
	parent := cfg.Dir
	if parent != "" {
		if err := os.MkdirAll(parent, 0o755); err != nil {
			return nil, fmt.Errorf("shard: spill dir: %w", err)
		}
	}
	dir, err := os.MkdirTemp(parent, "pimspill-*")
	if err != nil {
		return nil, fmt.Errorf("shard: spill dir: %w", err)
	}

	sp := &Spill{dir: dir, files: make([]string, n), counts: make([]int, n)}
	files := make([]*os.File, n)
	writers := make([]*genome.RecordWriter, n)
	fail := func(err error) (*Spill, error) {
		for _, f := range files {
			if f != nil {
				f.Close()
			}
		}
		os.RemoveAll(dir)
		return nil, err
	}
	for i := range files {
		path := filepath.Join(dir, fmt.Sprintf("shard-%04d.fasta", i))
		f, err := os.Create(path)
		if err != nil {
			return fail(fmt.Errorf("shard: spill file: %w", err))
		}
		files[i] = f
		sp.files[i] = path
		writers[i] = genome.NewRecordWriter(&countingWriter{w: f, n: &sp.bytes})
	}

	buffers := make([][]genome.Record, n)
	resident := 0
	flush := func() error {
		for i, buf := range buffers {
			for _, rec := range buf {
				if err := writers[i].Write(rec); err != nil {
					return fmt.Errorf("shard: spill write: %w", err)
				}
			}
			buffers[i] = buffers[i][:0]
		}
		resident = 0
		return nil
	}

	next := 0
	err = genome.ScanRecords(r, format, func(rec genome.Record) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		i := next % n
		next++
		sp.counts[i]++
		buffers[i] = append(buffers[i], rec)
		resident++
		if resident >= capReads {
			sp.evictions++
			return flush()
		}
		return nil
	})
	if err != nil {
		return fail(err)
	}
	if err := flush(); err != nil {
		return fail(err)
	}
	for i := range writers {
		if err := writers[i].Flush(); err != nil {
			return fail(fmt.Errorf("shard: spill flush: %w", err))
		}
		f := files[i]
		files[i] = nil
		if err := f.Close(); err != nil {
			return fail(fmt.Errorf("shard: spill close: %w", err))
		}
	}
	sp.records = int64(next)

	if cfg.Counters != nil {
		cfg.Counters.Add("spill.files", int64(n))
		cfg.Counters.Add("spill.records", sp.records)
		cfg.Counters.Add("spill.bytes", sp.bytes)
		cfg.Counters.Add("spill.evictions", sp.evictions)
	}
	return sp, nil
}

// readGate admits shards into flight by their declared read counts,
// bounding the decoded reads resident across all running shard jobs. A
// request larger than the whole budget is clamped, so a single oversized
// shard still runs (alone) instead of deadlocking; release applies the
// same clamp so the books stay balanced.
type readGate struct {
	mu       sync.Mutex
	cond     *sync.Cond
	capacity int
	used     int
}

func newReadGate(capacity int) *readGate {
	g := &readGate{capacity: capacity}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// clamp bounds one shard's reservation to the gate capacity.
func (g *readGate) clamp(n int) int {
	if n > g.capacity {
		return g.capacity
	}
	return n
}

// acquire blocks until n reads fit under the cap or ctx ends. Pair every
// successful acquire with exactly one release of the same n.
func (g *readGate) acquire(ctx context.Context, n int) error {
	n = g.clamp(n)
	g.mu.Lock()
	defer g.mu.Unlock()
	for g.used+n > g.capacity {
		if err := ctx.Err(); err != nil {
			return err
		}
		g.cond.Wait()
	}
	g.used += n
	return nil
}

// release returns n reads to the budget and wakes every waiter.
func (g *readGate) release(n int) {
	n = g.clamp(n)
	g.mu.Lock()
	g.used -= n
	g.cond.Broadcast()
	g.mu.Unlock()
}

// wake broadcasts under the lock so blocked acquires re-check their
// context; registered via context.AfterFunc. Taking the mutex first is
// what makes the wakeup race-free against a waiter between its ctx check
// and its cond.Wait.
func (g *readGate) wake() {
	g.mu.Lock()
	g.cond.Broadcast()
	g.mu.Unlock()
}

// maxResidentReads returns the plan's effective resident-read cap.
func (p Plan) maxResidentReads() int {
	if p.MaxResidentReads > 0 {
		return p.MaxResidentReads
	}
	return DefaultMaxResidentReads
}

// spillSource is one spill file as a job's read source: a FileSource that
// opens when an engine pulls the first read, so an engine that hands the
// shard to another process (internal/distshard) instead asks SpillFile where
// the shard is and never opens it here.
type spillSource struct {
	*genome.FileSource
	shard int
}

// SpillFile returns the spill-file index and path behind the source.
func (s spillSource) SpillFile() (shard int, path string) { return s.shard, s.Path() }

// AssembleSpill assembles a completed spill partition out-of-core: each
// non-empty shard streams from its spill file through the job queue onto
// its engine, admitted only while the decoded reads in flight stay within
// Plan.MaxResidentReads, and the per-shard reports merge through the same
// union-graph re-dedup as the in-memory path. (The software engine counts
// read by read, so its footprint is the record in flight plus its k-mer
// table; an engine that must drain — the functional simulator — holds at
// most its shard, which is exactly what the gate admitted.) For
// count-independent options the merged contigs are byte-identical to both
// the in-memory sharded run and the unsharded run.
//
// The caller owns sp and should Close it after use; every file AssembleSpill
// opens is closed before it returns.
func AssembleSpill(ctx context.Context, sp *Spill, plan Plan) (*Result, error) {
	if sp == nil || sp.TotalReads() == 0 {
		return nil, fmt.Errorf("shard: no reads")
	}
	var jobs []job
	for i := 0; i < sp.Shards(); i++ {
		// Round-robin leaves shards i >= TotalReads empty when there are
		// fewer reads than shards — mirroring Split's clamp, they simply do
		// not run.
		if sp.Count(i) > 0 {
			jobs = append(jobs, job{shard: i, reads: sp.Count(i), src: spillSource{genome.NewFileSource(sp.Path(i)), i}})
		}
	}
	return run(ctx, jobs, plan)
}
