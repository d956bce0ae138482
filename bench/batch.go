package bench

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"runtime"
	"time"

	"pimassembler/internal/correct"
	"pimassembler/internal/debruijn"
	"pimassembler/internal/engine"
	"pimassembler/internal/genome"
	"pimassembler/internal/kmer"
	"pimassembler/internal/metrics"
)

// A traced batch run makes minReplays..maxReplays (operation, replay) pairs:
// three already give a median, and the run must end near its --seconds.
const (
	minReplays = 2
	maxReplays = 3
)

// engineInst is a batch workload that is one engine call per operation:
// input bytes → engine.Assemble over a scanner source → contig FASTA bytes.
type engineInst struct {
	e    *env
	in   *Input
	eng  engine.Engine
	opts engine.Options
	// check judges the last operation's output against a reference computed
	// without the code path under test.
	check func(x *engineInst, q quality) error
	// replayOp re-runs one operation layer by layer under the root span and
	// returns the contig FASTA bytes it produced.
	replayOp func(x *engineInst, tr *Tracer, op, root int, layer map[string]float64) ([]byte, error)

	recs []opRecord     // one per operation run so far
	last *engine.Report // the last operation's contigs, quality and simulated totals
	out  []byte         // and its FASTA bytes
}

// opRecord is what one operation leaves behind for verify and the replay.
type opRecord struct {
	sum     [32]byte   // hash of the contig FASTA bytes
	sim     [3]float64 // simulated commands, makespan ns, energy pJ (pim only)
	stages  [3]float64 // the engine's own hashmap, deBruijn, traverse ms (software only)
	mallocs uint64     // heap objects the operation allocated
}

func newEngineInst(e *env, name string, in *Input, opts engine.Options) (*engineInst, error) {
	eng, err := engine.Lookup(name)
	if err != nil {
		return nil, err
	}
	return &engineInst{e: e, in: in, eng: eng, opts: opts}, nil
}

// setupSW100k: error-free reads, the paper's three stages at k=16.
func setupSW100k(e *env) (instance, error) {
	in, err := GenInput(e.seed, e.sz.genome, e.sz.reads, 0, genome.FormatFASTA)
	if err != nil {
		return nil, err
	}
	opts := engine.DefaultOptions()
	opts.K = 16
	x, err := newEngineInst(e, "software", in, opts)
	if err != nil {
		return nil, err
	}
	// Error-free reads can only spell reference substrings, and 10× coverage
	// leaves well under 2 % of a uniform genome without a 16-base overlap.
	x.check = func(_ *engineInst, q quality) error {
		if q.Misassembled != 0 || q.GenomeFraction < 0.98 || q.recall < 0.98 {
			return fmt.Errorf("%w: %s", errMismatch, q)
		}
		return nil
	}
	x.replayOp = replaySoftware
	return x, nil
}

// setupSWNoisy: FASTQ with 1 % substitutions at 30×, k=32, every cleaning
// option on, quality scored inside the operation.
func setupSWNoisy(e *env) (instance, error) {
	in, err := GenInput(e.seed, e.sz.genome, e.sz.reads, 0.01, genome.FormatFASTQ)
	if err != nil {
		return nil, err
	}
	opts := engine.DefaultOptions()
	opts.K = 32
	opts.Correct = true
	opts.Simplify = true
	opts.MinCount = 2
	opts.Ref = in.Ref
	x, err := newEngineInst(e, "software", in, opts)
	if err != nil {
		return nil, err
	}
	// Correction and simplification are heuristics: short erroneous contigs
	// survive them, and one surviving error makes a 100 kbp contig "not a
	// reference substring". The bar is k-mer level: the contigs hold nearly
	// every reference k-mer, little else, in pieces many reads long.
	x.check = func(_ *engineInst, q quality) error {
		if q.recall < 0.98 || q.precision < 0.90 || q.NG50 < 5*ReadLen {
			return fmt.Errorf("%w: %s", errMismatch, q)
		}
		return nil
	}
	x.replayOp = replaySoftware
	return x, nil
}

// setupPIM: the functional simulator over 16 hash sub-arrays.
func setupPIM(e *env) (instance, error) {
	in, err := GenInput(e.seed, e.sz.genome, e.sz.reads, 0, genome.FormatFASTA)
	if err != nil {
		return nil, err
	}
	opts := engine.DefaultOptions()
	opts.K = 16
	opts.Subarrays = 16
	x, err := newEngineInst(e, "pim", in, opts)
	if err != nil {
		return nil, err
	}
	// The simulated hardware must assemble exactly what plain Go does.
	x.check = func(x *engineInst, _ quality) error {
		sw, err := engine.Lookup("software")
		if err != nil {
			return err
		}
		swOpts := x.opts
		swOpts.Subarrays = 0
		rep, err := sw.Assemble(x.e.ctx, x.in.Source(), swOpts)
		if err != nil {
			return err
		}
		return sameSequences(x.last.Contigs, rep.Contigs)
	}
	x.replayOp = replayPIM
	return x, nil
}

// op is one untraced operation.
func (x *engineInst) op() (*engine.Report, []byte, error) {
	rep, err := x.eng.Assemble(x.e.ctx, x.in.Source(), x.opts)
	if err != nil {
		return nil, nil, err
	}
	out, err := contigFASTA(rep.Contigs)
	return rep, out, err
}

// timedOp runs op and records what verify and the replay compare against.
func (x *engineInst) timedOp() error {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rep, out, err := x.op()
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&after)
	// Only what verify and the replay read is kept: the whole report pins the
	// k-mer table and the graph, so the next operation would run beside a
	// second working set and fault in fresh pages for it (the first timed
	// operation of sw_100k did: 135 000 minor faults, 250–330 ms of system
	// time, against 4 000–60 000 for the others).
	x.last = &engine.Report{Contigs: rep.Contigs, Quality: rep.Quality, Functional: rep.Functional}
	x.out = out
	rec := opRecord{sum: sha256.Sum256(out), mallocs: after.Mallocs - before.Mallocs}
	if f := rep.Functional; f != nil {
		rec.sim = [3]float64{float64(f.Commands), f.Makespan.MakespanNS, f.EnergyPJ}
	}
	if t := rep.Timings; t != nil {
		rec.stages = [3]float64{ms(t.Hashmap), ms(t.DeBruijn), ms(t.Traverse)}
	}
	x.recs = append(x.recs, rec)
	return nil
}

func (x *engineInst) measure(seconds float64) (measured, error) {
	m, err := timeOps(x.e, seconds, x.in.Reads, x.timedOp)
	x.recs = tail(x.recs, len(m.opMS)) // the warm-up is not part of the measured window
	return m, err
}

func (x *engineInst) verify() (int, float64, error) {
	contigs, err := parseContigs(x.out)
	if err != nil {
		return 0, 0, err
	}
	q := evaluate(contigs, x.in.Ref, x.opts.K)
	failed := x.unstableOps()
	if err := x.check(x, q); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		failed = len(x.recs)
	}
	return failed, q.recall, nil
}

// quality scores a contig set against the reference it was sampled from:
// metrics.Evaluate's exact-substring view plus a k-mer view that one
// surviving base error cannot zero.
type quality struct {
	metrics.Report
	recall    float64 // share of the reference's distinct k-mers the contigs contain
	precision float64 // share of the contigs' distinct k-mers the reference contains
}

func (q quality) String() string {
	return fmt.Sprintf("%s kmer-recall=%.4f kmer-precision=%.4f", q.Report, q.recall, q.precision)
}

func evaluate(contigs []debruijn.Contig, ref *genome.Sequence, k int) quality {
	q := quality{Report: metrics.Evaluate(contigs, ref)}
	q.recall, q.precision = kmerRecall(contigs, ref, k)
	return q
}

// kmerRecall compares the distinct k-mers of the contigs with the
// reference's: the share of the reference found, and the share of the
// contigs that is reference.
func kmerRecall(contigs []debruijn.Contig, ref *genome.Sequence, k int) (recall, precision float64) {
	seqs := make([]*genome.Sequence, len(contigs))
	for i, c := range contigs {
		seqs[i] = c.Seq
	}
	want := kmer.CountReads([]*genome.Sequence{ref}, k)
	got := kmer.CountReads(seqs, k)
	shared := 0
	want.Each(func(km kmer.Kmer, _ uint32) bool {
		if got.Count(km) > 0 {
			shared++
		}
		return true
	})
	if want.Len() > 0 {
		recall = float64(shared) / float64(want.Len())
	}
	if got.Len() > 0 {
		precision = float64(shared) / float64(got.Len())
	}
	return recall, precision
}

// unstableOps counts operations whose output bytes or simulated statistics
// differ from the last one's: the input is fixed, so every one must repeat.
func (x *engineInst) unstableOps() int {
	n := 0
	for _, r := range x.recs {
		if last := x.recs[len(x.recs)-1]; r.sum != last.sum || r.sim != last.sim {
			n++
		}
	}
	return n
}

func (x *engineInst) replay(tr *Tracer, seconds float64) (map[string]float64, int, int, error) {
	layer := make(map[string]float64)
	untraced, traced, failed, err := replayLoop(tr, "assembly", seconds, x.timedOp, func() []byte { return x.out },
		func(n, root int) ([]byte, error) { return x.replayOp(x, tr, n, root, layer) })
	if err != nil {
		return nil, 0, 0, err
	}
	x.recs = tail(x.recs, len(untraced))
	failed += x.unstableOps()

	for _, name := range []string{
		"genome.parse", "genome.write", "kmer.count_serial", "kmer.filter",
		"debruijn.build", "debruijn.traverse", "debruijn.simplify",
		"correct.build", "correct.apply", "metrics.evaluate",
		"core.seqbank", "core.hashmap", "core.graph", "sched.schedule",
	} {
		layer[name+"_ms"] = tr.MedianMS(name)
	}
	if p := layer["genome.parse_ms"]; p > 0 {
		layer["genome.parse_mb_per_s"] = float64(len(x.in.Data)) / 1e6 / (p / 1e3)
	}
	for i, name := range []string{"assembly.stage_hashmap_ms", "assembly.stage_debruijn_ms", "assembly.stage_traverse_ms"} {
		layer[name] = x.medianOf(func(r opRecord) float64 { return r.stages[i] })
	}
	layer["assembly.self_ms"] = tr.RootSelfMS("op")
	layer["trace.replay_gap_pct"] = replayGapPct(untraced, traced)
	layer["debruijn.contigs"] = float64(len(x.last.Contigs))
	layer["metrics.n50_bp"] = float64(debruijn.N50(x.last.Contigs))

	if err := x.extras(tr, layer, median(untraced)); err != nil {
		return nil, 0, 0, err
	}
	return layer, len(traced), failed, nil
}

// extras measures what sits off the operation's path: quality scoring where
// the operation does not score, the parallel counter (the -count-workers
// verdict), and the simulator's per-command host costs and kernels.
func (x *engineInst) extras(tr *Tracer, layer map[string]float64, opMS float64) error {
	q := x.last.Quality
	if q == nil {
		var rep metrics.Report
		layer["metrics.evaluate_ms"] = ms(tr.Do("metrics.evaluate", "metrics", -1, -1, func() {
			rep = metrics.Evaluate(x.last.Contigs, x.in.Ref)
		}))
		q = &rep
	}
	layer["metrics.genome_fraction_pct"] = 100 * q.GenomeFraction

	if f := x.last.Functional; f != nil {
		cmds := float64(f.Commands)
		layer["core.allocs_per_cmd"] = x.medianOf(func(r opRecord) float64 { return float64(r.mallocs) }) / cmds
		layer["core.host_ns_per_cmd"] = opMS * 1e6 / cmds
		layer["core.sim_cmds_per_host_s"] = cmds / (opMS / 1e3)
		subarrayKernels(tr, layer)
		return nil
	}
	reads, err := genome.ReadAll(x.in.Source())
	if err != nil {
		return err
	}
	layer["kmer.count_parallel_ms"] = ms(tr.Do("kmer.count_parallel", "kmer", -1, -1, func() {
		kmer.CountReadsParallel(reads, x.opts.K, runtime.GOMAXPROCS(0))
	}))
	return nil
}

// medianOf is the median of one field over the recorded operations.
func (x *engineInst) medianOf(field func(opRecord) float64) float64 {
	vals := make([]float64, len(x.recs))
	for i, r := range x.recs {
		vals[i] = field(r)
	}
	return median(vals)
}

// replaySoftware is assembly.Assemble taken apart: the same exported calls
// in the same order, one span each.
func replaySoftware(x *engineInst, tr *Tracer, op, root int, layer map[string]float64) ([]byte, error) {
	var reads []*genome.Sequence
	var err error
	tr.Do("genome.parse", "genome", op, root, func() { reads, err = genome.ReadAll(x.in.Source()) })
	if err != nil {
		return nil, err
	}
	o := x.opts.Options
	if o.Correct {
		copies := make([]*genome.Sequence, len(reads))
		for i, r := range reads {
			copies[i] = r.Subsequence(0, r.Len())
		}
		threshold := o.SolidThreshold
		if threshold == 0 {
			threshold = 3
		}
		var c *correct.Corrector
		tr.Do("correct.build", "correct", op, root, func() { c = correct.FromReadsWorkers(copies, o.K, threshold, 4, o.CountWorkers) })
		tr.Do("correct.apply", "correct", op, root, func() { layer["correct.corrected_bases"] = float64(c.CorrectAll(copies).Edits) })
		reads = copies
	}

	var table *kmer.CountTable
	d := tr.Do("kmer.count_serial", "kmer", op, root, func() { table = kmer.CountReads(reads, o.K) })
	var total int64
	for _, r := range reads {
		if r.Len() >= o.K {
			total += int64(r.Len() - o.K + 1)
		}
	}
	layer["kmer.kmers_per_s"] = float64(total) / d.Seconds()
	layer["kmer.distinct"] = float64(table.Len())
	layer["kmer.probes_per_add"] = float64(table.ProbeOps()) / float64(total)

	var g *debruijn.Graph
	if o.MinCount > 1 {
		var entries []kmer.Entry
		tr.Do("kmer.filter", "kmer", op, root, func() { entries = table.FilterMinCount(o.MinCount) })
		tr.Do("debruijn.build", "debruijn", op, root, func() {
			g = debruijn.NewGraphHint(o.K, len(entries)+1, len(entries))
			for _, e := range entries {
				g.AddKmer(e.Kmer, e.Count)
			}
		})
	} else {
		tr.Do("debruijn.build", "debruijn", op, root, func() { g = debruijn.Build(table) })
	}
	if o.Simplify {
		tr.Do("debruijn.simplify", "debruijn", op, root, func() { g.Simplify(2*o.K, 2*o.K, 10) })
	}
	layer["debruijn.nodes"] = float64(g.NumNodes())
	layer["debruijn.edges"] = float64(g.NumEdges())

	var contigs []debruijn.Contig
	tr.Do("debruijn.traverse", "debruijn", op, root, func() {
		_, _ = g.EulerPath() // diagnostic in the pipeline too: contigs never depend on it
		contigs = g.Contigs()
	})
	if x.opts.Ref != nil {
		tr.Do("metrics.evaluate", "metrics", op, root, func() { metrics.Evaluate(contigs, x.opts.Ref) })
	}
	var out []byte
	tr.Do("genome.write", "genome", op, root, func() { out, err = contigFASTA(contigs) })
	return out, err
}

// contigFASTA renders contigs exactly as cmd/assemble and the service do.
func contigFASTA(contigs []debruijn.Contig) ([]byte, error) {
	var buf bytes.Buffer
	w := genome.NewRecordWriter(&buf)
	for i, c := range contigs {
		name := fmt.Sprintf("contig_%d len=%d cov=%.1f", i, c.Seq.Len(), c.MeanCoverage)
		if err := w.Write(genome.Record{Name: name, Seq: c.Seq}); err != nil {
			return nil, err
		}
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// parseContigs reads contig FASTA bytes back, so verification judges what
// the operation emitted rather than what it held in memory.
func parseContigs(fasta []byte) ([]debruijn.Contig, error) {
	recs, err := genome.ReadFASTA(bytes.NewReader(fasta))
	if err != nil {
		return nil, err
	}
	contigs := make([]debruijn.Contig, len(recs))
	for i, r := range recs {
		contigs[i] = debruijn.Contig{Seq: r.Seq}
	}
	return contigs, nil
}

// sameSequences reports whether two contig sets spell the same sequences in
// the same order (coverage annotations may differ between paths).
func sameSequences(got, want []debruijn.Contig) error {
	if len(got) != len(want) {
		return fmt.Errorf("%w: %d contigs, want %d", errMismatch, len(got), len(want))
	}
	for i := range got {
		if !got[i].Seq.Equal(want[i].Seq) {
			return fmt.Errorf("%w: contig %d differs from the reference run", errMismatch, i)
		}
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// tail returns the last n elements of s.
func tail[T any](s []T, n int) []T {
	if len(s) <= n {
		return s
	}
	return s[len(s)-n:]
}

func (x *engineInst) close() error { return nil }
