package bench

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"

	"pimassembler/internal/distshard"
	"pimassembler/internal/engine"
	"pimassembler/internal/genome"
	"pimassembler/internal/metrics"
	"pimassembler/internal/shard"
)

const (
	distShards = 4
	// distProcs worker processes: the box has two cores, and the issue caps
	// concurrent workers at nproc.
	distProcs = 2
	// workerEnv turns a re-exec of this binary into a distshard worker.
	workerEnv = "PIMBENCH_DIST_WORKER"
)

// WorkerMain serves the distshard worker protocol on stdin/stdout and
// reports true when the coordinator started this process as a worker.
// Both the pimbench driver and the package's TestMain call it first.
func WorkerMain() (bool, error) {
	if os.Getenv(workerEnv) != "1" {
		return false, nil
	}
	return true, distshard.RunWorker(os.Stdin, os.Stdout, nil)
}

// distInst is dist_60k: FASTA bytes → shard.Partition (spill files under a
// private temp dir) → distshard.Assemble over worker processes that are this
// binary re-exec'ed → contig FASTA bytes.
type distInst struct {
	e    *env
	in   *Input
	opts engine.Options
	exe  string
	tmp  string // private parent of every spill directory this run makes

	sums [][32]byte
	out  []byte
}

func setupDist(e *env) (instance, error) {
	in, err := GenInput(e.seed, e.sz.genome, e.sz.reads, 0, genome.FormatFASTA)
	if err != nil {
		return nil, err
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(e.tmp, "pimbench-dist-")
	if err != nil {
		return nil, err
	}
	opts := engine.DefaultOptions()
	opts.K = 16
	return &distInst{e: e, in: in, opts: opts, exe: exe, tmp: tmp}, nil
}

// partition spills the input into distShards files, evicting whenever a
// quarter of the reads is resident.
func (x *distInst) partition(data []byte, shards int, counters *metrics.Counters) (*shard.Spill, error) {
	return shard.Partition(x.e.ctx, bytes.NewReader(data), genome.FormatFASTA, shard.SpillConfig{
		Shards:           shards,
		Dir:              x.tmp,
		MaxResidentReads: max(x.in.Reads/4, 1),
		Counters:         counters,
	})
}

func (x *distInst) distConfig(procs int, counters *metrics.Counters) distshard.Config {
	return distshard.Config{
		WorkerProcs: procs,
		WorkerCmd:   []string{x.exe},
		Env:         []string{workerEnv + "=1"},
		Opts:        x.opts,
		Counters:    counters,
	}
}

// op is one untraced operation.
func (x *distInst) op() ([]byte, error) {
	sp, err := x.partition(x.in.Data, distShards, nil)
	if err != nil {
		return nil, err
	}
	res, err := distshard.Assemble(x.e.ctx, sp, x.distConfig(distProcs, nil))
	if cerr := sp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	return contigFASTA(res.Report.Contigs)
}

func (x *distInst) timedOp() error {
	out, err := x.op()
	if err != nil {
		return err
	}
	x.out = out
	x.sums = append(x.sums, sha256.Sum256(out))
	return nil
}

func (x *distInst) measure(seconds float64) (measured, error) {
	m, err := timeOps(x.e, seconds, x.in.Reads, x.timedOp)
	x.sums = tail(x.sums, len(m.opMS))
	return m, err
}

// verify: the merged contigs spell exactly what one unsharded software run
// of the same reads does, no worker outlives its run, no spill is left.
func (x *distInst) verify() (int, float64, error) {
	got, err := parseContigs(x.out)
	if err != nil {
		return 0, 0, err
	}
	sw, err := engine.Lookup("software")
	if err != nil {
		return 0, 0, err
	}
	want, err := sw.Assemble(x.e.ctx, x.in.Source(), x.opts)
	if err != nil {
		return 0, 0, err
	}
	failed := 0
	for _, s := range x.sums {
		if s != x.sums[len(x.sums)-1] {
			failed++
		}
	}
	err = sameSequences(got, want.Contigs)
	if err == nil {
		err = x.leftovers()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "dist_60k:", err)
		failed = len(x.sums)
	}
	recall, _ := kmerRecall(got, x.in.Ref, x.opts.K)
	return failed, recall, nil
}

// leftovers reports a surviving child process or spill directory.
func (x *distInst) leftovers() error {
	kids, err := childPIDs()
	if err != nil {
		return err
	}
	if len(kids) > 0 {
		return fmt.Errorf("%w: worker processes %v outlived their run", errMismatch, kids)
	}
	entries, err := os.ReadDir(x.tmp)
	if err != nil {
		return err
	}
	if len(entries) > 0 {
		return fmt.Errorf("%w: %d spill directories left under %s", errMismatch, len(entries), x.tmp)
	}
	return nil
}

// childPIDs lists live or unreaped children of this process from /proc
// (field 4 of /proc/<pid>/stat is the parent; the command name before it is
// parenthesised and may contain spaces).
func childPIDs() ([]int, error) {
	stats, err := filepath.Glob("/proc/[0-9]*/stat")
	if err != nil {
		return nil, err
	}
	self := strconv.Itoa(os.Getpid())
	var kids []int
	for _, path := range stats {
		data, err := os.ReadFile(path)
		if err != nil {
			continue // the process ended between the glob and the read
		}
		s := string(data)
		rest := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
		if len(rest) > 1 && rest[1] == self {
			pid, _ := strconv.Atoi(filepath.Base(filepath.Dir(path)))
			kids = append(kids, pid)
		}
	}
	return kids, nil
}

// replay takes the operation apart — partition, the shards' engine runs
// (what the workers do, without the process boundary), the merge — and then
// pushes the same spill through every driver the repository has, so the
// process boundary's own cost is a difference of measured numbers.
func (x *distInst) replay(tr *Tracer, seconds float64) (map[string]float64, int, int, error) {
	layer := make(map[string]float64)
	reads, err := genome.ReadAll(x.in.Source())
	if err != nil {
		return nil, 0, 0, err
	}
	counters := metrics.NewCounters()
	var execSum, execMax []float64
	untraced, traced, failed, err := replayLoop(tr, "distshard", seconds, x.timedOp, func() []byte { return x.out },
		func(n, root int) ([]byte, error) {
			out, durs, err := x.replayOp(tr, n, root, layer)
			var sum, longest float64
			for _, d := range durs {
				sum += d
				longest = max(longest, d)
			}
			execSum, execMax = append(execSum, sum), append(execMax, longest)
			return out, err
		})
	if err != nil {
		return nil, 0, 0, err
	}
	if err := x.otherDrivers(tr, reads, counters); err != nil {
		return nil, 0, 0, err
	}

	// Spawn + hello + one job + bye, with next to no assembly inside.
	one, err := x.partition(firstRecord(x.in.Data), 1, nil)
	if err != nil {
		return nil, 0, 0, err
	}
	tr.Do("distshard.spawn", "distshard", -1, -1, func() { _, err = distshard.Assemble(x.e.ctx, one, x.distConfig(1, counters)) })
	if cerr := one.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, 0, 0, fmt.Errorf("distshard.spawn: %w", err)
	}

	for _, name := range []string{
		"shard.partition", "shard.merge", "shard.inproc_spill", "shard.inmem", "shard.unsharded", "genome.write",
		"distshard.assemble", "distshard.procs1", "distshard.spawn",
	} {
		layer[name+"_ms"] = tr.MedianMS(name)
	}
	layer["shard.exec_sum_ms"] = median(execSum)
	layer["shard.exec_max_ms"] = median(execMax)
	layer["distshard.overhead_ms"] = layer["distshard.assemble_ms"] - (layer["shard.exec_sum_ms"]/distProcs + layer["shard.merge_ms"])
	layer["distshard.respawns"] = float64(counters.Get("dist.respawns"))
	layer["distshard.retries"] = float64(counters.Get("dist.retries"))
	layer["distshard.frame_errors"] = float64(counters.Get("dist.frame.errors"))
	layer["distshard.worker_peak_rss_mb"] = peakRSSMB(syscall.RUSAGE_CHILDREN)
	layer["trace.replay_gap_pct"] = replayGapPct(untraced, traced)
	if err := x.leftovers(); err != nil {
		fmt.Fprintln(os.Stderr, "dist_60k:", err)
		failed++
	}
	return layer, len(traced), failed, nil
}

// replayOp is one operation under the root span: partition, distProcs
// goroutines pulling shards from one queue as the coordinator's runners do
// with their worker processes, merge, spill removal. It returns the contig
// FASTA bytes and each shard's engine time.
func (x *distInst) replayOp(tr *Tracer, n, root int, layer map[string]float64) ([]byte, []float64, error) {
	sw, err := engine.Lookup("software")
	if err != nil {
		return nil, nil, err
	}
	workerOpts := x.opts
	workerOpts.StreamStage1 = true // distshard forces it on every worker

	var sp *shard.Spill
	spill := metrics.NewCounters()
	d := tr.Do("shard.partition", "shard", n, root, func() { sp, err = x.partition(x.in.Data, distShards, spill) })
	if err != nil {
		return nil, nil, err
	}
	defer sp.Close() // error paths; the success path checks the span's Close below
	layer["shard.spill_bytes"] = float64(spill.Get("spill.bytes"))
	layer["shard.evictions"] = float64(spill.Get("spill.evictions"))
	layer["shard.spill_mb_per_s"] = float64(spill.Get("spill.bytes")) / 1e6 / d.Seconds()

	perShard := make([]*engine.Report, sp.Shards())
	names := make([]string, sp.Shards())
	durs := make([]float64, sp.Shards())
	errs := make([]error, sp.Shards())
	queue := make(chan int, sp.Shards()) // sized to the number of sends
	for i := range perShard {
		names[i] = "software"
		queue <- i
	}
	close(queue)
	var wg sync.WaitGroup
	for w := 0; w < distProcs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				src, err := sp.Source(i)
				if err != nil {
					errs[i] = err
					continue
				}
				durs[i] = ms(tr.Do("shard.exec", "assembly", n, root, func() { perShard[i], errs[i] = sw.Assemble(x.e.ctx, src, workerOpts) }))
				src.Close()
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, nil, err
	}
	var merged *shard.Result
	tr.Do("shard.merge", "shard", n, root, func() { merged, err = shard.Merge(perShard, names, x.opts) })
	if err != nil {
		return nil, nil, err
	}
	tr.Do("shard.cleanup", "shard", n, root, func() { err = sp.Close() })
	if err != nil {
		return nil, nil, err
	}
	var out []byte
	tr.Do("genome.write", "genome", n, root, func() { out, err = contigFASTA(merged.Report.Contigs) })
	return out, durs, err
}

// otherDrivers partitions once more and assembles that spill with two
// worker processes, with one, in-process from the spill files, in-process
// from memory, and not sharded at all — the scaling and process-boundary
// verdicts — checking every result against the operation's own output.
func (x *distInst) otherDrivers(tr *Tracer, reads []*genome.Sequence, counters *metrics.Counters) error {
	want, err := parseContigs(x.out)
	if err != nil {
		return err
	}
	sp, err := x.partition(x.in.Data, distShards, nil)
	if err != nil {
		return err
	}
	defer sp.Close()
	plan := shard.Plan{Shards: distShards, Opts: x.opts, Workers: distProcs, MaxResidentReads: max(x.in.Reads/2, 1)}
	for _, drv := range []struct {
		name, layer string
		run         func() (*shard.Result, error)
	}{
		{"distshard.assemble", "distshard", func() (*shard.Result, error) {
			return distshard.Assemble(x.e.ctx, sp, x.distConfig(distProcs, counters))
		}},
		{"distshard.procs1", "distshard", func() (*shard.Result, error) {
			return distshard.Assemble(x.e.ctx, sp, x.distConfig(1, counters))
		}},
		{"shard.inproc_spill", "shard", func() (*shard.Result, error) { return shard.AssembleSpill(x.e.ctx, sp, plan) }},
		{"shard.inmem", "shard", func() (*shard.Result, error) { return shard.Assemble(x.e.ctx, reads, plan) }},
		{"shard.unsharded", "assembly", func() (*shard.Result, error) {
			one := plan
			one.Shards = 1 // a single shard passes through verbatim: the plain software run
			return shard.Assemble(x.e.ctx, reads, one)
		}},
	} {
		var res *shard.Result
		var err error
		runtime.GC()
		tr.Do(drv.name, drv.layer, -1, -1, func() { res, err = drv.run() })
		if err == nil {
			err = sameSequences(res.Report.Contigs, want)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", drv.name, err)
		}
	}
	return sp.Close()
}

// firstRecord cuts the first FASTA record out of data.
func firstRecord(data []byte) []byte {
	if i := bytes.Index(data[1:], []byte("\n>")); i >= 0 {
		return data[:i+2]
	}
	return data
}

func (x *distInst) close() error { return os.RemoveAll(x.tmp) }
