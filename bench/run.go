package bench

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// Options selects one run of one workload.
type Options struct {
	Workload string
	Seed     uint64
	// Seconds is how long the run measures; batch workloads finish the
	// operation in flight and time at least MinOps of them.
	Seconds float64
	// Trace selects the traced replay (per-layer metrics) instead of the
	// untraced end-to-end measurement.
	Trace bool
	// Scale divides every input size. Only the package test sets it (to 50,
	// so the whole suite stays under ten seconds); the command has no flag
	// for it, because a scaled run is not the named workload.
	Scale int
	// TmpDir is the parent of every spill directory ("" = os.TempDir()).
	TmpDir string
	// TraceOut, when set on a traced run, receives the Chrome trace JSON.
	TraceOut string
	// Log receives the human-readable metric lines (nil = discard).
	Log io.Writer
}

// A set-up that takes well under a millisecond is repeated until
// setupBudget has passed: the median of five such samples, all taken within
// a few milliseconds, moves by more than any bound from one run to the next.
const setupBudget = 2 * time.Second

// Value is one reported number with its unit.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the last line a run prints: exactly these four keys.
type Result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]Value `json:"metrics"`
}

// sizes is one workload's input shape at scale 1.
type sizes struct {
	genome int // reference length, bp
	reads  int // reads per operation (svc_small: per job)
}

// scaled shrinks sz for the package test, keeping it assemblable.
func (sz sizes) scaled(scale int) sizes {
	if scale <= 1 {
		return sz
	}
	return sizes{genome: max(sz.genome/scale, 3*ReadLen), reads: max(sz.reads/scale, 24)}
}

// env is what a workload's set-up receives.
type env struct {
	ctx  context.Context
	seed uint64
	sz   sizes
	tmp  string
	ref  *speedRef // ticked between the untraced run's timed operations
	log  io.Writer // one line per timed operation: wall, CPU, faults, steal
}

// measured is the raw outcome of an untraced measurement window: wall
// times, before Run divides them by the machine's slowdown.
type measured struct {
	opMS      []float64     // one wall-time sample per completed operation or job
	wall      time.Duration // measured time: Σ operations, or the service windows
	readsPerS float64       // input reads ÷ median operation time (svc_small: median window rate)
	alloc     uint64        // bytes this process allocated while measuring
	failed    int           // operations that errored or ended in a non-done state
}

// instance is one set-up workload.
type instance interface {
	// measure runs untraced for about seconds and keeps what verify needs.
	measure(seconds float64) (measured, error)
	// verify checks the outputs measure kept against an independently
	// computed reference and returns how many operations failed the check
	// and the k-mer recall (0..1) of the last output.
	verify() (failed int, recall float64, err error)
	// replay is the traced pass: it calls each layer's exported functions
	// itself, one span per call, and returns the per-layer metrics it could
	// measure, the number of replays made, and any output mismatch.
	replay(tr *Tracer, seconds float64) (layer map[string]float64, ops, failed int, err error)
	close() error
}

// impl binds a permanent workload name to its sizes and set-up.
type impl struct {
	sz    sizes
	setup func(e *env) (instance, error)
	// maxSetups caps the set-ups of one run. Only svc_small needs a low cap:
	// each of its set-ups leaves a loopback connection in TIME_WAIT, and with
	// thousands per run, ten runs in, listen and connect take four times as
	// long for every later run.
	maxSetups int
	// sens is how much of the reference kernel's slowdown the workload's own
	// times show: the slope of log operation time on log kernel time, measured
	// twice over an hour of alternating runs (1.02 / 1.07 on sw_100k, 1.28 /
	// 1.47 on sw_noisy_k32, whose correction pass is all small allocations and
	// map probes, 0.44 / 0.96 on the simulator, 1.03 / 1.18 on dist_60k, 0.44 /
	// 0.55 on the service, which is system calls and scheduling), then set to
	// the exponent that left the least spread over ten consecutive runs. Run
	// divides times by slowdown^sens; dividing pim_600 by the whole of it
	// turned a 4.5 % run-to-run spread into 10.8 %.
	sens float64
	// procs is the GOMAXPROCS of the untraced run (0 = the machine's). The
	// three engine workloads are single-threaded programs; with a second P the
	// collector borrows the sibling hyper-thread, which slows the program's own
	// core (sw_100k: 2.17 s per operation with two Ps, 2.02 s with one, medians
	// of 34 alternating runs each) and makes the time depend on who else wants
	// that thread: over ten consecutive runs sw_noisy_k32 spread 22 % with two
	// Ps and 13 % with one, before any division.
	procs int
}

var impls = map[string]impl{
	"sw_100k":      {sizes{genome: 1_000_000, reads: 100_000}, setupSW100k, 5000, 1, 1},
	"sw_noisy_k32": {sizes{genome: 100_000, reads: 30_000}, setupSWNoisy, 5000, 1.35, 1},
	"pim_600":      {sizes{genome: 2_600, reads: 200}, setupPIM, 5000, 0.7, 1},
	"dist_60k":     {sizes{genome: 600_000, reads: 60_000}, setupDist, 5000, 1.1, 0},
	"svc_small":    {sizes{genome: 2_000, reads: 200}, setupSvc, 200, 0.5, 0},
}

// Sizes reports a workload's input shape, for the provenance block.
func Sizes(workload string) map[string]int {
	sz := impls[workload].sz
	return map[string]int{"genome_bp": sz.genome, "reads": sz.reads, "read_len": ReadLen}
}

// Run sets the workload up SetupRepeats times, measures it once — untraced
// for the end-to-end metrics, or the traced replay for the per-layer ones —
// verifies the outputs and returns the result line.
func Run(ctx context.Context, o Options) (res *Result, err error) {
	w, ok := impls[o.Workload]
	if !ok {
		return nil, fmt.Errorf("bench: unknown workload %q", o.Workload)
	}
	if o.Log == nil {
		o.Log = io.Discard
	}
	e := &env{ctx: ctx, seed: o.Seed, sz: w.sz.scaled(o.Scale), tmp: o.TmpDir, ref: new(speedRef), log: o.Log}
	if e.tmp == "" {
		e.tmp = os.TempDir()
	}
	if w.procs > 0 && !o.Trace {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(w.procs))
	}

	var inst instance
	e.ref.tick()
	var setups []float64
	setupStart := time.Now()
	budget := setupBudget / time.Duration(max(o.Scale, 1)) // smoke runs need no steady setup_s
	for i := 0; i < SetupRepeats || (i < w.maxSetups && time.Since(setupStart) < budget); i++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, fmt.Errorf("bench: %s: tear-down: %w", o.Workload, err)
			}
		}
		t0 := time.Now()
		if inst, err = w.setup(e); err != nil {
			return nil, fmt.Errorf("bench: %s: set-up: %w", o.Workload, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	e.ref.tick()
	defer func() {
		if cerr := inst.close(); cerr != nil && err == nil {
			res, err = nil, fmt.Errorf("bench: %s: tear-down: %w", o.Workload, cerr)
		}
	}()

	res = &Result{Metrics: make(map[string]Value)}
	if o.Trace {
		tr := NewTracer(o.Workload)
		layer, ops, failed, err := inst.replay(tr, o.Seconds)
		if err != nil {
			return nil, fmt.Errorf("bench: %s: replay: %w", o.Workload, err)
		}
		spans := tr.Spans()
		layer["trace.spans"] = float64(len(spans))
		if err := fillLayer(res, layer); err != nil {
			return nil, err
		}
		res.Attempted, res.Failed = ops, failed
		if o.TraceOut != "" {
			if err := WriteChrome(o.TraceOut, spans); err != nil {
				return nil, err
			}
		}
		printSelf(o.Log, o.Workload, spans)
	} else {
		m, err := inst.measure(o.Seconds)
		if err != nil {
			return nil, fmt.Errorf("bench: %s: %w", o.Workload, err)
		}
		rss := peakRSSMB(syscall.RUSAGE_SELF)
		if len(m.opMS) == 0 {
			return nil, fmt.Errorf("bench: %s: no operation completed (%d failed)", o.Workload, m.failed)
		}
		badOut, recall, err := inst.verify()
		if err != nil {
			return nil, fmt.Errorf("bench: %s: verify: %w", o.Workload, err)
		}
		ops := len(m.opMS)
		res.Attempted = ops + m.failed
		res.Failed = m.failed + badOut
		nominal := refNominalMS
		if w.procs == 1 {
			nominal = refNominal1P
		}
		slow := math.Pow(e.ref.slowdown(nominal), w.sens) // see ref.go: times are reported at the box's quiet speed
		vals := map[string]float64{
			"setup_s":         median(setups) / slow,
			"op_ms":           median(m.opMS) / slow,
			"reads_per_s":     m.readsPerS * slow,
			"alloc_mb_per_op": float64(m.alloc) / 1e6 / float64(ops),
			"peak_rss_mb":     rss,
			"kmer_recall_pct": 100 * recall,
		}
		for _, em := range EndToEnd {
			res.Metrics[em.Name] = Value{vals[em.Name], em.Unit}
		}
		fmt.Fprintf(o.Log, "%s: %d timed operations in %.2f s host time (wall op_ms min %.3f, median %.3f, p95 %.3f, max %.3f; wall setup_s %.6f)\n",
			o.Workload, ops, m.wall.Seconds(), quantile(m.opMS, 0), median(m.opMS), quantile(m.opMS, 0.95), quantile(m.opMS, 1), median(setups))
		fmt.Fprintf(o.Log, "%s: reference kernel median %.2f ms over %d passes, nominal %.1f ms: setup_s, op_ms and reads_per_s below are the wall values corrected by (%.4f)^%g = %.4f\n",
			o.Workload, median(e.ref.passMS), len(e.ref.passMS), nominal, e.ref.slowdown(nominal), w.sens, slow)
	}
	res.Correct = res.Failed == 0
	printMetrics(o.Log, o.Workload, res)
	return res, nil
}

// fillLayer copies the replay's numbers into the result, 0 for every layer
// metric the workload does not exercise, and rejects a name the table lacks.
func fillLayer(res *Result, layer map[string]float64) error {
	known := make(map[string]bool, len(PerLayer))
	for _, pm := range PerLayer {
		known[pm.Name] = true
		res.Metrics[pm.Name] = Value{layer[pm.Name], pm.Unit}
	}
	for name := range layer {
		if !known[name] {
			return fmt.Errorf("bench: replay produced %q, which spec.go does not list", name)
		}
	}
	return nil
}

// printMetrics prints every metric by name with its unit, saying which
// numbers are simulated.
func printMetrics(w io.Writer, workload string, res *Result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := res.Metrics[n]
		note := "host"
		switch {
		case strings.HasPrefix(v.Unit, "sim_"):
			note = "simulated, unvalidated by this tool"
		case exactLayer[n] || v.Unit == "count" || v.Unit == "ratio" || v.Unit == "%":
			note = "counted"
		}
		fmt.Fprintf(w, "%-14s %-36s %16.4f %-7s (%s)\n", workload, n, v.Value, v.Unit, note)
	}
	fmt.Fprintf(w, "%-14s attempted=%d failed=%d correct=%v\n", workload, res.Attempted, res.Failed, res.Correct)
}

// printSelf prints where the replay's time went, by layer self time.
func printSelf(w io.Writer, workload string, spans []Span) {
	self := SelfMS(spans)
	var total float64
	layers := make([]string, 0, len(self))
	for l, ms := range self {
		layers = append(layers, l)
		total += ms
	}
	sort.Slice(layers, func(i, j int) bool { return self[layers[i]] > self[layers[j]] })
	for _, l := range layers {
		fmt.Fprintf(w, "%-14s self time %-10s %10.1f ms host  %5.1f %% of %0.f ms traced\n", workload, l, self[l], 100*self[l]/total, total)
	}
}

// timeOps runs op once untimed (caches fill, the heap reaches its working
// size), then whole operations until seconds of operation time have passed
// and MinOps are timed. Every operation starts from a collected heap, as a
// fresh CLI process would: without that, whether a 1 GB mark phase lands
// inside an operation decides its time, and operations of one run differ by
// 2x. The collection itself is not timed, and neither are the reference
// ticks before each operation and after the last.
func timeOps(e *env, seconds float64, readsPerOp int, op func() error) (measured, error) {
	var m measured
	ref := e.ref
	if err := op(); err != nil {
		return m, fmt.Errorf("warm-up: %w", err)
	}
	for len(m.opMS) < MinOps || m.wall.Seconds() < seconds {
		ref.tick()
		before := totalAlloc()
		p := snap()
		d, err := timeOp(op)
		if err != nil {
			return m, fmt.Errorf("operation %d: %w", len(m.opMS), err)
		}
		fmt.Fprintf(e.log, "operation %d: wall %.1f ms; %s; reference pass %.1f ms\n", len(m.opMS), ms(d), p.since(), median(tail(ref.passMS, refPasses)))
		m.alloc += totalAlloc() - before
		m.opMS = append(m.opMS, ms(d))
		m.wall += d
	}
	ref.tick()
	m.readsPerS = float64(readsPerOp) / (median(m.opMS) / 1e3)
	return m, nil
}

// replayLoop is the traced pass of a batch workload: after a warm-up it
// alternates one untraced operation (op, which keeps its output where want
// finds it) with one traced replay under a root span of rootLayer: at least
// minReplays pairs, so one disturbed operation does not decide the gap, then
// until seconds have passed, at most maxReplays. A replay whose bytes differ
// from the operation's is not evidence of where its time goes and counts as
// failed.
func replayLoop(tr *Tracer, rootLayer string, seconds float64, op func() error, want func() []byte,
	replayOp func(n, root int) ([]byte, error)) (untraced, traced []float64, failed int, err error) {
	if err := op(); err != nil {
		return nil, nil, 0, fmt.Errorf("warm-up: %w", err)
	}
	start := time.Now()
	for n := 0; n < minReplays || (n < maxReplays && time.Since(start).Seconds() < seconds); n++ {
		d, err := timeOp(op)
		if err != nil {
			return nil, nil, 0, err
		}
		untraced = append(untraced, ms(d))

		runtime.GC()
		root := tr.Begin("op", rootLayer, n, -1)
		out, err := replayOp(n, root)
		if err != nil {
			return nil, nil, 0, err
		}
		traced = append(traced, ms(tr.End(root)))
		if !bytes.Equal(out, want()) {
			failed++
		}
	}
	return untraced, traced, failed, nil
}

// replayGapPct is the tracing-overhead figure: the median over pairs of
// (replay − untraced operation) ÷ untraced operation. Pairing cancels a
// slow minute that covers both halves of a pair.
func replayGapPct(untraced, traced []float64) float64 {
	gaps := make([]float64, len(traced))
	for i := range traced {
		gaps[i] = 100 * (traced[i] - untraced[i]) / untraced[i]
	}
	return median(gaps)
}

// probe is a snapshot of what tells a slow machine from a slow program: this
// process's CPU time, page faults and involuntary switches, and the time the
// hypervisor gave this VM's cores to someone else.
type probe struct {
	ru    syscall.Rusage
	steal float64 // ms, all cores, from /proc/stat
}

func snap() probe {
	var p probe
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &p.ru)
	p.steal = stealMS()
	return p
}

// since reports what the process and the machine did since the snapshot.
func (p probe) since() string {
	q := snap()
	tv := func(a, b syscall.Timeval) float64 {
		return float64(b.Sec-a.Sec)*1e3 + float64(b.Usec-a.Usec)/1e3
	}
	return fmt.Sprintf("cpu user %.1f ms sys %.1f ms, %d minor faults, %d involuntary switches, VM steal %.0f ms",
		tv(p.ru.Utime, q.ru.Utime), tv(p.ru.Stime, q.ru.Stime), q.ru.Minflt-p.ru.Minflt, q.ru.Nivcsw-p.ru.Nivcsw, q.steal-p.steal)
}

// stealMS is the steal column of /proc/stat's first line (USER_HZ = 100).
func stealMS() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 {
		return 0
	}
	var v float64
	fmt.Sscan(f[8], &v)
	return v * 10
}

// totalAlloc is the cumulative bytes this process has allocated.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// timeOp times one operation from a collected heap.
func timeOp(op func() error) (time.Duration, error) {
	runtime.GC()
	t0 := time.Now()
	err := op()
	return time.Since(t0), err
}

// peakRSSMB is ru_maxrss (kilobytes on Linux) of this process or of its
// waited-for children.
func peakRSSMB(who int) float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

var errMismatch = errors.New("output mismatch")
