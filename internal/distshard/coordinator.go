package distshard

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sync"
	"time"

	"pimassembler/internal/engine"
	"pimassembler/internal/genome"
	"pimassembler/internal/jobqueue"
	"pimassembler/internal/metrics"
	"pimassembler/internal/shard"
)

// handshakeTimeout bounds how long the coordinator waits for a freshly
// spawned worker's hello echo.
const handshakeTimeout = 10 * time.Second

// shutdownGrace is how long a worker gets to exit after the bye frame
// before it is force-killed.
const shutdownGrace = 2 * time.Second

// Config describes one distributed sharded run.
type Config struct {
	// WorkerProcs is the most worker processes alive at once (values < 1
	// mean one). A process is launched only when a shard finds none idle,
	// so a run never has more than it has non-empty shards.
	WorkerProcs int
	// WorkerCmd is the argv launching one worker: a binary that serves
	// RunWorker on its stdin/stdout. It is required; Assemble fails before
	// any process starts when it is empty.
	WorkerCmd []string
	// Env is appended to the inherited environment of every worker
	// process (the test harnesses select helper behaviours through it).
	Env []string
	// Engines names the execution paths, assigned to non-empty shards
	// round-robin exactly as shard.AssembleSpill assigns them (empty means
	// the software reference engine).
	Engines []string
	// Opts configures each shard's engine run. Ref and Counts do not cross
	// the wire (quality is scored in the merge pass).
	Opts engine.Options
	// Timeout bounds each dispatch attempt when positive; an attempt that
	// exceeds it kills the worker and counts against the retry budget.
	Timeout time.Duration
	// Retry is the job queue's per-shard attempt budget and backoff.
	// Worker crashes, corrupt frames, and timeouts are transient (retried
	// on a respawned worker); an error frame is retried only if the worker
	// classified it transient.
	Retry jobqueue.RetryPolicy
	// Counters optionally receives the dist.* instrumentation
	// (dist.workers, dist.respawns, dist.jobs, dist.retries, dist.results,
	// dist.timeouts, dist.frame.errors) beside the job queue's jobs.* and
	// latency.* series for the dispatch.
	Counters *metrics.Counters
}

// count bumps a dist counter when instrumentation is attached.
func (c Config) count(name string, delta int64) {
	if c.Counters != nil {
		c.Counters.Add(name, delta)
	}
}

// Assemble runs one distributed sharded assembly over a completed spill
// partition. It is shard.AssembleSpill with a different executor: the run's
// engine registry holds, for every engine name in use, a stand-in that
// forwards the shard's spill file to a worker process, so the dispatch loop,
// the attempt budget, the per-attempt timeout, the backoff and the
// first-failure cancellation are the in-process ones, and the reports merge
// through the same path — for count-independent options the merged contigs
// are byte-identical to shard.AssembleSpill and to an unsharded run. Any
// shard that exhausts its attempt budget fails the run with the shard index
// and engine named; workers are torn down (and reaped) on every exit path,
// including context cancellation.
//
// The caller owns sp and should Close it after use.
func Assemble(ctx context.Context, sp *shard.Spill, cfg Config) (*shard.Result, error) {
	if sp == nil || sp.TotalReads() == 0 {
		return nil, fmt.Errorf("distshard: no reads")
	}
	p := &pool{
		cfg:   cfg,
		cmd:   cfg.WorkerCmd,
		hello: &Hello{Proto: ProtoVersion, K: cfg.Opts.K, OptHash: optHash(cfg.Opts)},
		seen:  make(map[int]bool),
	}
	names := cfg.Engines
	if len(names) == 0 {
		names = []string{"software"}
	}
	// Names are validated here, before any process is launched, against the
	// default registry — the one workers resolve them in, being the same
	// binary.
	reg := engine.NewRegistry()
	for _, name := range names {
		if _, err := engine.Lookup(name); err != nil {
			return nil, err
		}
		if _, err := reg.Lookup(name); err != nil { // not yet standing in for this name
			if err := reg.Register(remoteEngine{name: name, pool: p}); err != nil {
				return nil, err
			}
		}
	}
	if len(p.cmd) == 0 {
		return nil, errors.New("distshard: no worker command (Config.WorkerCmd is empty)")
	}

	res, err := shard.AssembleSpill(ctx, sp, shard.Plan{
		Engines:  names,
		Opts:     cfg.Opts,
		Workers:  max(cfg.WorkerProcs, 1), // one job in flight per worker process
		Registry: reg,
		Timeout:  cfg.Timeout,
		Retry:    cfg.Retry,
		Counters: cfg.Counters,
		// The gate bounds reads decoded into this process, and none are:
		// each worker decodes its own shard in its own address space. Admit
		// every shard at once so no worker waits on the coordinator's budget.
		MaxResidentReads: int(sp.TotalReads()),
	})
	p.close(err == nil)
	if err != nil {
		return nil, fmt.Errorf("distshard: %w", err)
	}
	return res, nil
}

// remoteEngine stands in for one named engine in a run's registry: Assemble
// forwards the spill file behind src to a worker process, which resolves the
// name against its own registry and runs the shard there.
type remoteEngine struct {
	name string
	pool *pool
}

// Name implements engine.Engine.
func (e remoteEngine) Name() string { return e.name }

// Describe implements engine.Engine.
func (e remoteEngine) Describe() string { return e.name + " in a worker process" }

// Assemble implements engine.Engine: one dispatch attempt. Retrying it is
// the job queue's business.
func (e remoteEngine) Assemble(ctx context.Context, src genome.ReadSource, opts engine.Options) (*engine.Report, error) {
	ref, ok := src.(interface{ SpillFile() (int, string) })
	if !ok {
		return nil, fmt.Errorf("distshard: read source %T is not a spill file", src)
	}
	shardIdx, path := ref.SpillFile()
	return e.pool.run(ctx, &Job{Shard: shardIdx, Engine: e.name, SpillPath: path, Opts: opts})
}

// pool is one run's worker processes: spawned when a job finds none idle,
// handed back after a well-formed reply, reaped after anything else. The job
// queue runs at most WorkerProcs jobs at once, which is what bounds the pool.
type pool struct {
	cfg   Config
	cmd   []string
	hello *Hello

	mu   sync.Mutex
	idle []*workerProc
	seen map[int]bool // shards dispatched at least once
}

// run is one attempt at one shard on a checked-out worker.
func (p *pool) run(ctx context.Context, job *Job) (*engine.Report, error) {
	p.mu.Lock()
	retry := p.seen[job.Shard]
	p.seen[job.Shard] = true
	var w *workerProc
	if n := len(p.idle); n > 0 {
		w, p.idle = p.idle[n-1], p.idle[:n-1]
	}
	p.mu.Unlock()
	if retry {
		p.cfg.count("dist.retries", 1)
	} else {
		p.cfg.count("dist.jobs", 1)
	}
	if w == nil {
		var err error
		if w, err = p.spawn(ctx, retry); err != nil {
			return nil, err
		}
	}

	rep, err, dead := p.dispatch(ctx, w, job)
	if dead {
		w.reap()
	} else {
		p.mu.Lock()
		p.idle = append(p.idle, w)
		p.mu.Unlock()
	}
	if err == nil {
		p.cfg.count("dist.results", 1)
	}
	return rep, err
}

// close tears the pool down once every job has settled (so every live
// worker is idle): a bye and a grace period after a clean run, a kill
// otherwise.
func (p *pool) close(graceful bool) {
	var wg sync.WaitGroup
	for _, w := range p.idle {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if graceful {
				w.quit(shutdownGrace)
			} else {
				w.reap()
			}
		}()
	}
	wg.Wait()
}

// dispatch sends one job frame and waits for its reply until the attempt's
// context ends. dead reports whether the worker must be reaped: crashes,
// corrupt frames, wrong-shard replies, timeouts and cancellation kill it; a
// well-formed error frame leaves it serving.
func (p *pool) dispatch(ctx context.Context, w *workerProc, job *Job) (rep *engine.Report, err error, dead bool) {
	// broken is a worker that left the protocol: transient, and fatal to it.
	broken := func(err error) (*engine.Report, error, bool) {
		p.cfg.count("dist.frame.errors", 1)
		return nil, jobqueue.MarkTransient(err), true
	}
	wrongShard := func(got int) error {
		return fmt.Errorf("worker %s answered shard %d for shard %d", w.describe(), got, job.Shard)
	}
	if err := writeFrame(w.stdin, &Msg{Type: MsgJob, Job: job}); err != nil {
		return broken(fmt.Errorf("worker %s: %w", w.describe(), err))
	}

	select {
	case <-ctx.Done():
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			p.cfg.count("dist.timeouts", 1)
			return nil, fmt.Errorf("worker %s: attempt timed out: %w", w.describe(), ctx.Err()), true
		}
		return nil, ctx.Err(), true
	case fe := <-w.frames:
		if fe.err != nil {
			return broken(fmt.Errorf("worker %s died mid-shard: %w%s", w.describe(), fe.err, w.stderrTail()))
		}
		switch fe.msg.Type {
		case MsgResult:
			if got := fe.msg.Result.Shard; got != job.Shard {
				return broken(wrongShard(got))
			}
			rep, err := fromWireReport(fe.msg.Result)
			if err != nil {
				return broken(err)
			}
			return rep, nil, false
		case MsgError:
			we := fe.msg.Error
			if we.Shard != job.Shard {
				return broken(wrongShard(we.Shard))
			}
			if we.Transient {
				return nil, jobqueue.MarkTransient(we), false
			}
			return nil, we, false
		default:
			return broken(fmt.Errorf("worker %s: unexpected frame %q", w.describe(), fe.msg.Type))
		}
	}
}

// spawn launches one worker process and completes the handshake. Spawn and
// handshake failures are terminal — a binary that cannot start or speaks
// the wrong protocol version will not get better on retry — unless it was
// the attempt's deadline that cut the handshake short.
func (p *pool) spawn(ctx context.Context, respawn bool) (*workerProc, error) {
	cmd := exec.Command(p.cmd[0], p.cmd[1:]...)
	cmd.Env = append(os.Environ(), p.cfg.Env...)
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	stderr := &tailBuffer{limit: 4096}
	cmd.Stderr = stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("launching worker %q: %w", p.cmd[0], err)
	}
	p.cfg.count("dist.workers", 1)
	if respawn {
		p.cfg.count("dist.respawns", 1)
	}
	w := &workerProc{
		cmd:    cmd,
		stdin:  stdin,
		stderr: stderr,
		frames: make(chan frameOrErr),
		done:   make(chan struct{}),
	}
	go w.readLoop(stdout)

	if err := w.handshake(ctx, p.hello, handshakeTimeout); err != nil {
		w.reap()
		return nil, fmt.Errorf("worker handshake: %w%s", err, w.stderrTail())
	}
	return w, nil
}

// frameOrErr is one reader-goroutine delivery: a decoded frame or the
// terminal read error (io.EOF when the worker closed its stdout).
type frameOrErr struct {
	msg *Msg
	err error
}

// workerProc is one live worker process plus its pipe plumbing. All
// methods are called by whichever job has it checked out of the pool, or by
// the pool's teardown once it is idle — never by two goroutines at once.
type workerProc struct {
	cmd    *exec.Cmd
	stdin  io.WriteCloser
	stderr *tailBuffer
	// frames delivers decoded frames (or the terminal read error) from
	// the reader goroutine; done tears the reader down when the process
	// is reaped before its stream ended.
	frames chan frameOrErr
	done   chan struct{}
	reaped bool
}

// readLoop decodes frames off the worker's stdout until the stream ends;
// the terminal error (io.EOF on clean exit) is delivered like a frame.
func (p *workerProc) readLoop(stdout io.Reader) {
	br := bufio.NewReader(stdout)
	for {
		m, err := readFrame(br)
		select {
		case p.frames <- frameOrErr{msg: m, err: err}:
		case <-p.done:
			return
		}
		if err != nil {
			return
		}
	}
}

// handshake sends the hello and verifies the worker's echo: its protocol
// version must match this binary's, and k and the option hash must echo
// back verbatim.
func (p *workerProc) handshake(ctx context.Context, hello *Hello, timeout time.Duration) error {
	if err := writeFrame(p.stdin, &Msg{Type: MsgHello, Hello: hello}); err != nil {
		return err
	}
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return fmt.Errorf("no hello reply within %v", timeout)
	case fe := <-p.frames:
		if fe.err != nil {
			return fe.err
		}
		if fe.msg.Type != MsgHello {
			return fmt.Errorf("expected hello echo, got %q", fe.msg.Type)
		}
		h := fe.msg.Hello
		if h.Proto != ProtoVersion {
			return fmt.Errorf("protocol version mismatch: worker speaks %d, this binary speaks %d", h.Proto, ProtoVersion)
		}
		if h.K != hello.K || h.OptHash != hello.OptHash {
			return fmt.Errorf("handshake echo mismatch: k=%d hash=%s, want k=%d hash=%s", h.K, h.OptHash, hello.K, hello.OptHash)
		}
		return nil
	}
}

// describe names the process for error messages.
func (p *workerProc) describe() string {
	if p.cmd.Process != nil {
		return fmt.Sprintf("pid %d", p.cmd.Process.Pid)
	}
	return "(not started)"
}

// stderrTail renders the captured stderr tail for error messages.
func (p *workerProc) stderrTail() string {
	s := p.stderr.String()
	if s == "" {
		return ""
	}
	return fmt.Sprintf(" (worker stderr: %q)", s)
}

// reap force-kills the worker and waits for it, so no exit path leaves a
// zombie. Idempotent.
func (p *workerProc) reap() {
	if p.reaped {
		return
	}
	p.reaped = true
	close(p.done)
	p.stdin.Close()
	if p.cmd.Process != nil {
		p.cmd.Process.Kill()
	}
	p.cmd.Wait()
}

// quit asks the worker to exit cleanly — bye frame, stdin close — and
// reaps it; a worker that has not closed its stdout within grace is
// force-killed. Idempotent via reap.
func (p *workerProc) quit(grace time.Duration) {
	if p.reaped {
		return
	}
	writeFrame(p.stdin, &Msg{Type: MsgBye})
	p.stdin.Close()
	t := time.NewTimer(grace)
	defer t.Stop()
	for {
		select {
		case fe := <-p.frames:
			if fe.err != nil {
				// Stream ended: the worker is exiting; reap without the
				// kill being necessary (Wait still runs to collect it).
				p.reaped = true
				close(p.done)
				p.cmd.Wait()
				return
			}
			// A straggler frame after bye: drain and keep waiting.
		case <-t.C:
			p.reap()
			return
		}
	}
}

// tailBuffer retains the first limit bytes written (worker stderr capture
// for error messages; a chatty worker cannot grow it unboundedly).
type tailBuffer struct {
	mu    sync.Mutex
	limit int
	buf   bytes.Buffer
}

func (b *tailBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if room := b.limit - b.buf.Len(); room > 0 {
		if len(p) > room {
			b.buf.Write(p[:room])
		} else {
			b.buf.Write(p)
		}
	}
	return len(p), nil
}

func (b *tailBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}
