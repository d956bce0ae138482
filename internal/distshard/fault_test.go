package distshard

import (
	"context"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pimassembler/internal/assembly"
	"pimassembler/internal/engine"
	"pimassembler/internal/genome"
	"pimassembler/internal/jobqueue"
	"pimassembler/internal/metrics"
	"pimassembler/internal/shard"
)

// faultFixture partitions a small deterministic workload and returns the
// spill plus the unsharded reference report the recovered run must match.
func faultFixture(t *testing.T) (*shard.Spill, *engine.Report, engine.Options) {
	t.Helper()
	reads := workload(61, 1_200, 60, 48, 0)
	opts := engine.Options{Options: assembly.Options{K: 16}}
	sw, err := engine.Lookup("software")
	if err != nil {
		t.Fatal(err)
	}
	base, err := sw.Assemble(context.Background(), genome.NewSliceSource(reads), opts)
	if err != nil {
		t.Fatal(err)
	}
	return partition(t, fastaBytes(t, reads), genome.FormatFASTA, 3), base, opts
}

// recoverRun asserts one armed-once fault recovers: the run succeeds on a
// respawned worker, the merged contigs still match the unsharded
// reference, and no worker process or spill directory outlives the test.
func recoverRun(t *testing.T, mode string, cfg Config) *metrics.Counters {
	t.Helper()
	sp, base, opts := faultFixture(t)
	defer sp.Close()
	c := metrics.NewCounters()
	cfg.WorkerCmd = helperCmd(t)
	cfg.Env = helperEnv(t, mode, true)
	cfg.Opts = opts
	cfg.Counters = c
	cfg.Retry = jobqueue.RetryPolicy{MaxAttempts: 3}
	res, err := Assemble(context.Background(), sp, cfg)
	if err != nil {
		t.Fatalf("armed-once %q fault did not recover: %v", mode, err)
	}
	assertSameContigs(t, mode+" recovery", base, res.Report)
	if got := c.Get("dist.retries"); got < 1 {
		t.Errorf("dist.retries = %d, want >= 1", got)
	}
	if got := c.Get("dist.respawns"); got < 1 {
		t.Errorf("dist.respawns = %d, want >= 1 (fault kills the worker)", got)
	}
	assertNoChildren(t)
	return c
}

// TestWorkerKilledMidShard injects one crash between job acceptance and
// reply: the coordinator must classify it transient, respawn the worker,
// and finish with the exact in-process result.
func TestWorkerKilledMidShard(t *testing.T) {
	recoverRun(t, "die", Config{WorkerProcs: 1})
}

// TestWorkerGarbageFrame injects one burst of non-frame bytes: the frame
// decoder must reject the magic, the coordinator must kill and respawn.
func TestWorkerGarbageFrame(t *testing.T) {
	c := recoverRun(t, "garbage", Config{WorkerProcs: 1})
	if got := c.Get("dist.frame.errors"); got < 1 {
		t.Errorf("dist.frame.errors = %d, want >= 1", got)
	}
}

// TestWorkerTruncatedFrame injects one frame whose header promises more
// payload than ever arrives: the incremental payload read must surface the
// truncation, and the run must recover on a respawn.
func TestWorkerTruncatedFrame(t *testing.T) {
	c := recoverRun(t, "truncate", Config{WorkerProcs: 1})
	if got := c.Get("dist.frame.errors"); got < 1 {
		t.Errorf("dist.frame.errors = %d, want >= 1", got)
	}
}

// TestWorkerHangPastTimeout injects one infinite stall: the per-attempt
// timeout must fire, the hung process must be killed (not leaked), and the
// retry must land on a fresh worker.
func TestWorkerHangPastTimeout(t *testing.T) {
	c := recoverRun(t, "hang", Config{WorkerProcs: 1, Timeout: 500 * time.Millisecond})
	if got := c.Get("dist.timeouts"); got < 1 {
		t.Errorf("dist.timeouts = %d, want >= 1", got)
	}
}

// TestPersistentFaultNamesShard arms the crash on every attempt: the run
// must fail once the budget is exhausted, the error must name the failing
// shard and engine, and the teardown contract still holds — no zombie
// workers, and the spill directory still closes cleanly.
func TestPersistentFaultNamesShard(t *testing.T) {
	sp, _, opts := faultFixture(t)
	c := metrics.NewCounters()
	_, err := Assemble(context.Background(), sp, Config{
		WorkerProcs: 2,
		WorkerCmd:   helperCmd(t),
		Env:         helperEnv(t, "die", false), // every job crashes
		Opts:        opts,
		Retry:       jobqueue.RetryPolicy{MaxAttempts: 2},
		Counters:    c,
	})
	if err == nil {
		t.Fatal("run with a persistently crashing worker succeeded")
	}
	if !strings.Contains(err.Error(), "shard ") || !strings.Contains(err.Error(), "engine ") {
		t.Errorf("failure does not name the shard and engine: %v", err)
	}
	if got := c.Get("dist.retries"); got < 1 {
		t.Errorf("dist.retries = %d, want >= 1", got)
	}
	assertNoChildren(t)
	dir := filepath.Dir(sp.Path(0))
	if err := sp.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("spill dir leaked after failed run (stat err %v)", err)
	}
}

// TestCancellationTearsDownWorkers cancels mid-run against hung workers:
// Assemble must return the context error promptly and reap every worker
// process on the way out.
func TestCancellationTearsDownWorkers(t *testing.T) {
	sp, _, opts := faultFixture(t)
	defer sp.Close()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		// Give the workers time to spawn, handshake, and stall on a job.
		time.Sleep(300 * time.Millisecond)
		cancel()
		close(done)
	}()
	_, err := Assemble(ctx, sp, Config{
		WorkerProcs: 2,
		WorkerCmd:   helperCmd(t),
		Env:         helperEnv(t, "hang", false), // every job stalls forever
		Opts:        opts,
	})
	<-done
	if err == nil {
		t.Fatal("cancelled run against hung workers succeeded")
	}
	if ctx.Err() == nil {
		t.Fatalf("run failed before cancellation: %v", err)
	}
	assertNoChildren(t)
}

// TestHandshakeVersionMismatch pins the fail-fast contract: a worker
// speaking a different protocol version is rejected at spawn, terminally —
// no retry loop, no dispatched work.
func TestHandshakeVersionMismatch(t *testing.T) {
	// RunWorker enforces the version worker-side; exercise the
	// coordinator-side check directly over an in-process pipe pair.
	hello := &Hello{Proto: ProtoVersion, K: 16, OptHash: "abc"}
	p := &workerProc{frames: make(chan frameOrErr, 1), done: make(chan struct{})}
	r, w := io.Pipe()
	p.stdin = w
	go func() {
		m, err := readFrame(r)
		if err != nil || m.Type != MsgHello {
			p.frames <- frameOrErr{err: err}
			return
		}
		p.frames <- frameOrErr{msg: &Msg{Type: MsgHello, Hello: &Hello{Proto: ProtoVersion + 7, K: m.Hello.K, OptHash: m.Hello.OptHash}}}
	}()
	err := p.handshake(context.Background(), hello, time.Second)
	if err == nil || !strings.Contains(err.Error(), "protocol version mismatch") {
		t.Fatalf("version-skewed handshake error = %v, want protocol version mismatch", err)
	}
}
