package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestRealBinaryDistributed is the multi-process path end to end on the real
// binary (the coordinator re-executes itself with -worker, which no in-test
// run() call can do): build cmd/assemble, run the same 4-shard out-of-core
// workload in-process and across 2 worker processes, and pin the external
// contracts —
//
//  1. the distributed contig FASTA is byte-identical to the in-process one,
//  2. both runs exit 0 with the same stdout, modulo the dispatch banner,
//  3. both spill directories are empty afterwards: no leaked spill state
//     and, through the coordinator's teardown, no leaked worker.
func TestRealBinaryDistributed(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binary")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go tool on PATH to build the binary with")
	}
	dir := t.TempDir()
	assemble := filepath.Join(dir, "assemble")
	if out, err := exec.Command(goTool, "build", "-o", assemble, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	readsPath := writeReads(t, dir, "reads.fasta", 42, 600)

	runOnce := func(label string, extra ...string) (stdout string, contigs []byte) {
		t.Helper()
		spillDir := filepath.Join(dir, "spill-"+label)
		if err := os.MkdirAll(spillDir, 0o755); err != nil {
			t.Fatal(err)
		}
		outPath := filepath.Join(dir, label+".fasta")
		cmd := exec.Command(assemble, append([]string{
			"-in", readsPath, "-k", "16", "-shards", "4", "-spill-dir", spillDir, "-out", outPath,
		}, extra...)...)
		var so, se bytes.Buffer
		cmd.Stdout, cmd.Stderr = &so, &se
		if err := cmd.Run(); err != nil {
			t.Fatalf("%s run: %v\nstderr:\n%s", label, err, se.String())
		}
		if ents, err := os.ReadDir(spillDir); err != nil || len(ents) != 0 {
			t.Errorf("%s run leaked spill state under %s: %v (err %v)", label, spillDir, ents, err)
		}
		contigs, err := os.ReadFile(outPath)
		if err != nil {
			t.Fatal(err)
		}
		return so.String(), contigs
	}

	inprocOut, inproc := runOnce("inproc")
	distOut, dist := runOnce("dist", "-worker-procs", "2", "-worker-timeout", "2m", "-worker-retries", "1")

	if len(inproc) == 0 {
		t.Fatal("empty contig output")
	}
	if !bytes.Equal(inproc, dist) {
		t.Errorf("distributed contigs differ from the in-process run (%d vs %d bytes)", len(dist), len(inproc))
	}
	const banner = "distributed: dispatching 4 spill files across 2 worker processes\n"
	if !strings.Contains(distOut, banner) {
		t.Errorf("distributed run missing its dispatch banner:\n%s", distOut)
	}
	if got := strings.Replace(distOut, banner, "", 1); got != inprocOut {
		t.Errorf("distributed stdout diverged from the in-process run:\n--- in-process ---\n%s\n--- distributed ---\n%s", inprocOut, got)
	}
}
