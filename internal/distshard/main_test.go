package distshard

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pimassembler/internal/engine"
)

// TestMain doubles as the worker-process entry point for the cross-process
// tests: when DISTSHARD_HELPER is set the test binary does not run tests at
// all — it serves the coordinator protocol (faithfully or with an injected
// fault) and exits. The coordinator under test launches this same binary
// via Config.WorkerCmd, which is exactly how the benchmark's pimbench
// launches its workers: same binary, selected by an environment variable.
func TestMain(m *testing.M) {
	mode := os.Getenv("DISTSHARD_HELPER")
	if mode == "" {
		os.Exit(m.Run())
	}
	if mode == "worker" {
		if err := RunWorker(os.Stdin, os.Stdout, nil); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	helperMain(mode)
	os.Exit(0)
}

// helperMain is a protocol-level worker with one injected fault. The fault
// arms once per DISTSHARD_FAULT_MARKER file: the first job trips it (and
// creates the marker), every later job — including on a respawned helper —
// is served faithfully. With no marker the fault trips on every job, so
// the coordinator's retry budget must exhaust.
func helperMain(mode string) {
	br := bufio.NewReader(os.Stdin)
	bw := bufio.NewWriter(os.Stdout)
	m, err := readFrame(br)
	if err != nil || m.Type != MsgHello {
		fmt.Fprintln(os.Stderr, "helper: bad handshake:", err)
		os.Exit(3)
	}
	reply := &Msg{Type: MsgHello, Hello: &Hello{Proto: ProtoVersion, K: m.Hello.K, OptHash: m.Hello.OptHash}}
	if err := writeFrame(bw, reply); err != nil {
		os.Exit(3)
	}
	if err := bw.Flush(); err != nil {
		os.Exit(3)
	}

	for {
		job, err := readFrame(br)
		if err == io.EOF {
			os.Exit(0)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "helper: read:", err)
			os.Exit(3)
		}
		if job.Type == MsgBye {
			os.Exit(0)
		}
		if job.Type != MsgJob {
			os.Exit(3)
		}
		armed := true
		if marker := os.Getenv("DISTSHARD_FAULT_MARKER"); marker != "" {
			if _, err := os.Stat(marker); err == nil {
				armed = false
			} else {
				os.WriteFile(marker, []byte("fired\n"), 0o644)
			}
		}
		if armed {
			switch mode {
			case "die":
				// Crash mid-shard: job accepted, no reply, process gone.
				os.Exit(3)
			case "garbage":
				// Corrupt stream: bytes that are not a frame, then exit.
				os.Stdout.WriteString("THIS IS NOT A FRAME AND NEVER WILL BE")
				os.Exit(0)
			case "truncate":
				// A frame header promising far more payload than ever
				// arrives, then a dead pipe.
				var hdr [8]byte
				copy(hdr[:4], frameMagic[:])
				hdr[4], hdr[5], hdr[6], hdr[7] = 0, 0, 0x10, 0 // 4096 bytes
				os.Stdout.Write(hdr[:])
				os.Stdout.WriteString(`{"type":"result"`)
				os.Exit(0)
			case "hang":
				// Serve nothing, exit never: only the coordinator's attempt
				// timeout (and kill) gets past this. Sleeping (not a bare
				// select{}) keeps the runtime's deadlock detector quiet —
				// this must look like a hang, not a crash.
				for {
					time.Sleep(time.Hour)
				}
			default:
				fmt.Fprintln(os.Stderr, "helper: unknown mode", mode)
				os.Exit(3)
			}
		}
		if err := writeFrame(bw, runJob(engine.Default(), job.Job)); err != nil {
			os.Exit(3)
		}
		if err := bw.Flush(); err != nil {
			os.Exit(3)
		}
	}
}

// helperCmd returns a WorkerCmd launching this test binary as a helper
// worker (the env selecting the mode rides in Config.Env).
func helperCmd(t *testing.T) []string {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	return []string{exe}
}

// helperEnv builds the Config.Env for one helper mode; faultOnce arms the
// fault for a single job via a marker file under the test's temp dir.
func helperEnv(t *testing.T, mode string, faultOnce bool) []string {
	t.Helper()
	env := []string{"DISTSHARD_HELPER=" + mode}
	if faultOnce {
		env = append(env, "DISTSHARD_FAULT_MARKER="+filepath.Join(t.TempDir(), "fault-fired"))
	}
	return env
}

// childPIDs lists this process's live direct children (zombies included —
// an unreaped worker shows up here until someone calls wait on it).
func childPIDs(t *testing.T) []string {
	t.Helper()
	matches, err := filepath.Glob("/proc/self/task/*/children")
	if err != nil || len(matches) == 0 {
		t.Skip("no /proc children listing on this platform")
	}
	var pids []string
	for _, m := range matches {
		b, err := os.ReadFile(m)
		if err != nil {
			continue
		}
		pids = append(pids, strings.Fields(string(b))...)
	}
	return pids
}

// assertNoChildren fails the test if any worker process outlives the run —
// the no-zombie, no-leak teardown contract. A just-killed child needs a
// moment to leave the process table, so poll briefly before declaring a
// leak.
func assertNoChildren(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		kids := childPIDs(t)
		if len(kids) == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker processes leaked past the run: pids %v", kids)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
