package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"pimassembler/internal/genome"
	"pimassembler/internal/service"
	"pimassembler/internal/stats"
)

// TestRealBinaryService is the daemon end to end as a release would run it
// (a real process, a real signal — what no in-test run() call covers): build
// cmd/assembled and cmd/assemble, boot the daemon on a random port, run one
// job over the wire, and pin the external contracts —
//
//  1. the contig FASTA served by /v1/jobs/{id}/contigs is byte-identical
//     to what cmd/assemble writes for the same reads,
//  2. /metrics parses as strict Prometheus text exposition and carries the
//     queue counters,
//  3. SIGTERM drains cleanly: the process logs the drain and exits 0.
func TestRealBinaryService(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binaries")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go tool on PATH to build the binaries with")
	}
	dir := t.TempDir()
	assembled := filepath.Join(dir, "assembled")
	assemble := filepath.Join(dir, "assemble")
	for pkg, bin := range map[string]string{".": assembled, "../assemble": assemble} {
		if out, err := exec.Command(goTool, "build", "-o", bin, pkg).CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", pkg, err, out)
		}
	}

	// One deterministic workload for both paths.
	rng := stats.NewRNG(99)
	seqs := genome.NewReadSampler(genome.GenerateGenome(2500, rng), 101, 0, rng).Sample(150)
	records := make([]genome.Record, len(seqs))
	for i, s := range seqs {
		records[i] = genome.Record{Name: fmt.Sprintf("r%d", i), Seq: s}
	}
	var reads bytes.Buffer
	if err := genome.WriteFASTA(&reads, records); err != nil {
		t.Fatal(err)
	}
	readsPath := filepath.Join(dir, "reads.fasta")
	if err := os.WriteFile(readsPath, reads.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	stdout, stderr := &syncBuffer{}, &syncBuffer{}
	daemon := exec.Command(assembled, "-addr", "127.0.0.1:0", "-workers", "2", "-drain-timeout", "30s")
	daemon.Stdout, daemon.Stderr = stdout, stderr
	if err := daemon.Start(); err != nil {
		t.Fatalf("start assembled: %v", err)
	}
	exited := make(chan error, 1)
	go func() { exited <- daemon.Wait() }()
	t.Cleanup(func() { daemon.Process.Kill() }) // a no-op once the drain below has reaped it

	var base string
	for deadline := time.Now().Add(15 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		if m := listenRE.FindStringSubmatch(stdout.String()); m != nil {
			base = m[1]
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never printed its listen line\nstdout: %s\nstderr: %s", stdout.String(), stderr.String())
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	c := &service.Client{BaseURL: base, APIKey: "smoke"}
	st, err := c.Submit(ctx, service.SubmitRequest{Engine: "software", Reads: reads.String(), K: 16})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	final, err := c.Wait(ctx, st.ID, 0)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if final.State != "done" {
		t.Fatalf("job finished %q (error %q), want done", final.State, final.Error)
	}
	served, err := c.Contigs(ctx, st.ID)
	if err != nil {
		t.Fatalf("contigs: %v", err)
	}

	directOut := filepath.Join(dir, "direct.fasta")
	if out, err := exec.Command(assemble, "-in", readsPath, "-k", "16", "-out", directOut).CombinedOutput(); err != nil {
		t.Fatalf("assemble: %v\n%s", err, out)
	}
	direct, err := os.ReadFile(directOut)
	if err != nil {
		t.Fatal(err)
	}
	if len(served) == 0 || !bytes.Equal(served, direct) {
		t.Errorf("served contigs (%d bytes) differ from cmd/assemble output (%d bytes)", len(served), len(direct))
	}

	samples, err := c.Metrics(ctx)
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	if got := samples["pim_jobs_done_total"]; got != 1 {
		t.Errorf("pim_jobs_done_total = %v, want 1", got)
	}
	if _, ok := samples["pim_service_pending"]; !ok {
		t.Error("pim_service_pending gauge missing from /metrics")
	}

	if err := daemon.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("signal: %v", err)
	}
	select {
	case err := <-exited:
		if err != nil {
			t.Fatalf("daemon exited non-zero after SIGTERM: %v\n%s", err, stdout.String())
		}
	case <-time.After(45 * time.Second):
		t.Fatalf("daemon did not exit within 45s of SIGTERM\n%s", stdout.String())
	}
	if !strings.Contains(stdout.String(), "drained") {
		t.Errorf("daemon stdout missing drain log:\n%s", stdout.String())
	}
}
