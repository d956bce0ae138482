package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pimassembler/internal/genome"
	"pimassembler/internal/stats"
)

// writeReads generates a deterministic FASTA read set for CLI tests.
func writeReads(t *testing.T, dir, name string, seed uint64, n int) string {
	t.Helper()
	rng := stats.NewRNG(seed)
	ref := genome.GenerateGenome(2_000, rng)
	reads := genome.NewReadSampler(ref, 101, 0, rng).Sample(n)
	records := make([]genome.Record, len(reads))
	for i, r := range reads {
		records[i] = genome.Record{Name: fmt.Sprintf("read_%d", i), Seq: r}
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := genome.WriteFASTA(f, records); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRunExitCodes is the flag-error regression table: every failure path
// returns the documented exit code with a one-line stderr message.
func TestRunExitCodes(t *testing.T) {
	dir := t.TempDir()
	readsPath := writeReads(t, dir, "reads.fasta", 41, 80)
	badManifest := filepath.Join(dir, "bad.manifest")
	if err := os.WriteFile(badManifest, []byte(readsPath+" software k=notanint\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	emptyManifest := filepath.Join(dir, "empty.manifest")
	if err := os.WriteFile(emptyManifest, []byte("# only a comment\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	// An option set no run can execute is a usage error before any input is
	// opened: these rows name an input that does not exist, which would be
	// exit 1 "no such file" had anything tried to read it.
	nope := filepath.Join(dir, "nope.fasta")
	badKManifest := filepath.Join(dir, "badk.manifest")
	if err := os.WriteFile(badKManifest, []byte("# a comment line\n"+nope+" software k=40\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	// Manifest lines take the pipeline switches the flags and requests take.
	noisyManifest := filepath.Join(dir, "noisy.manifest")
	if err := os.WriteFile(noisyManifest, []byte(readsPath+" software correct=true simplify=true mincount=2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	badBoolManifest := filepath.Join(dir, "badbool.manifest")
	if err := os.WriteFile(badBoolManifest, []byte(readsPath+" software simplify=maybe\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name   string
		args   []string
		code   int
		stderr string // required substring of stderr ("" = no requirement)
	}{
		{"k-out-of-range", []string{"-in", nope, "-k", "40"}, exitUsage, "k=40 outside"},
		{"k-out-of-range-distributed", []string{"-in", nope, "-k", "40", "-shards", "2", "-spill-dir", dir, "-worker-procs", "2"}, exitUsage, "flag provided but not defined: -shards"},
		{"scaffold-without-overlap", []string{"-in", nope, "-k", "3", "-scaffold"}, exitUsage, "positive overlap"},
		{"subarrays-beyond-geometry", []string{"-in", nope, "-engine", "pim", "-subarrays", "40000"}, exitUsage, "subarrays=40000 outside"},
		{"batch-line-k-out-of-range", []string{"-batch", badKManifest}, exitUsage, badKManifest + ":2: assembly: k=40 outside"},
		{"no-input", []string{}, exitUsage, "-in is required"},
		{"bad-flag", []string{"-no-such-flag"}, exitUsage, "flag provided but not defined"},
		{"parallel-stage1-flag-removed", []string{"-in", readsPath, "-engine", "pim", "-parallel"}, exitUsage, "flag provided but not defined: -parallel"},
		{"bad-flag-value", []string{"-k", "banana"}, exitUsage, "invalid value"},
		{"unknown-engine", []string{"-in", readsPath, "-engine", "warp-drive"}, exitUsage, "unknown engine"},
		{"missing-input-file", []string{"-in", filepath.Join(dir, "nope.fasta")}, exitRuntime, "no such file"},
		{"batch-and-in", []string{"-batch", emptyManifest, "-in", readsPath}, exitUsage, "mutually exclusive"},
		{"batch-missing-manifest", []string{"-batch", filepath.Join(dir, "nope.manifest")}, exitUsage, "no such file"},
		{"batch-malformed-manifest", []string{"-batch", badManifest}, exitUsage, "k:"},
		{"batch-empty-manifest", []string{"-batch", emptyManifest}, exitUsage, "holds no jobs"},
		{"batch-line-pipeline-switches", []string{"-batch", noisyManifest}, exitOK, "jobs.done"},
		{"batch-line-bad-bool", []string{"-batch", badBoolManifest}, exitUsage, badBoolManifest + ":1: simplify: strconv.ParseBool"},
		// There are no read-sharding, spill or worker-process flags: such an
		// invocation is a usage error naming the first of them, before any
		// input is opened, never a quiet unsharded run.
		{"shards-flag-removed", []string{"-in", filepath.Join(dir, "reads.fa"), "-shards", "4"}, exitUsage, "flag provided but not defined: -shards"},
		{"shard-engines-without-shards", []string{"-in", readsPath, "-shard-engines", "software,pim"}, exitUsage, "flag provided but not defined: -shard-engines"},
		{"unknown-shard-engine", []string{"-in", readsPath, "-shards", "2", "-shard-engines", "software,warp-drive"}, exitUsage, "flag provided but not defined: -shards"},
		{"spill-without-shards", []string{"-in", readsPath, "-spill-dir", dir}, exitUsage, "flag provided but not defined: -spill-dir"},
		{"max-resident-without-spill", []string{"-in", readsPath, "-shards", "2", "-max-resident-reads", "64"}, exitUsage, "flag provided but not defined: -shards"},
		{"spill-and-paired", []string{"-in", readsPath, "-shards", "2", "-spill-dir", dir, "-paired"}, exitUsage, "flag provided but not defined: -shards"},
		{"spill-missing-input", []string{"-in", filepath.Join(dir, "nope.fasta"), "-shards", "2", "-spill-dir", dir}, exitUsage, "flag provided but not defined: -shards"},
		{"worker-mode-removed", []string{"-worker"}, exitUsage, "flag provided but not defined: -worker"},
		{"list-engines", []string{"-list-engines"}, exitOK, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run(tc.args, &stdout, &stderr)
			if code != tc.code {
				t.Fatalf("exit code = %d, want %d (stderr: %s)", code, tc.code, stderr.String())
			}
			if tc.stderr != "" && !strings.Contains(stderr.String(), tc.stderr) {
				t.Fatalf("stderr %q lacks %q", stderr.String(), tc.stderr)
			}
		})
	}
}

// TestRunSingleJob pins the single-run happy path end to end.
func TestRunSingleJob(t *testing.T) {
	dir := t.TempDir()
	readsPath := writeReads(t, dir, "reads.fasta", 42, 120)
	outPath := filepath.Join(dir, "contigs.fasta")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-in", readsPath, "-out", outPath, "-k", "16"}, &stdout, &stderr)
	if code != exitOK {
		t.Fatalf("exit code = %d, stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "assembled 120 reads") {
		t.Fatalf("stdout lacks summary: %s", stdout.String())
	}
	if _, err := os.Stat(outPath); err != nil {
		t.Fatalf("contigs not written: %v", err)
	}
}

// TestRunOutWriteError pins that a contigs file the device cannot hold
// fails the run: exit 1 with the OS error, never a silent truncated -out.
func TestRunOutWriteError(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	readsPath := writeReads(t, t.TempDir(), "reads.fasta", 42, 120)
	var stdout, stderr bytes.Buffer
	code := run([]string{"-in", readsPath, "-out", "/dev/full"}, &stdout, &stderr)
	if code != exitRuntime || !strings.Contains(stderr.String(), "no space left") {
		t.Fatalf("exit code = %d, want %d with ENOSPC (stderr: %s)", code, exitRuntime, stderr.String())
	}
}

// TestRunCountWorkers pins the parallel-counting flag: `-count-workers N`
// is a pure perf knob, so stdout (modulo the wall-clock line) and the
// contigs file are byte-identical to the serial run for any N.
func TestRunCountWorkers(t *testing.T) {
	dir := t.TempDir()
	readsPath := writeReads(t, dir, "reads.fasta", 77, 130)

	runOnce := func(extra ...string) (string, string) {
		t.Helper()
		outPath := filepath.Join(dir, "contigs.fasta")
		var stdout, stderr bytes.Buffer
		args := append([]string{"-in", readsPath, "-out", outPath, "-k", "16"}, extra...)
		if code := run(args, &stdout, &stderr); code != exitOK {
			t.Fatalf("args %v: exit code = %d, stderr: %s", extra, code, stderr.String())
		}
		contigs, err := os.ReadFile(outPath)
		if err != nil {
			t.Fatal(err)
		}
		return stdout.String(), string(contigs)
	}

	baseOut, baseContigs := runOnce()
	for _, workers := range []string{"2", "4"} {
		out, contigs := runOnce("-count-workers", workers)
		if stripClocks(out) != stripClocks(baseOut) {
			t.Errorf("-count-workers %s stdout differs from serial:\n--- serial\n%s--- parallel\n%s", workers, baseOut, out)
		}
		if contigs != baseContigs {
			t.Errorf("-count-workers %s contigs file differs from serial", workers)
		}
	}
}

// stripClocks drops the wall-clock timing line from a run's stdout.
func stripClocks(out string) string {
	var b strings.Builder
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "software pipeline:") {
			continue
		}
		b.WriteString(line)
		b.WriteByte('\n')
	}
	return b.String()
}

// seqLines strips the FASTA headers, keeping only the sequence lines.
func seqLines(fasta string) string {
	var b strings.Builder
	for _, line := range strings.Split(fasta, "\n") {
		if !strings.HasPrefix(line, ">") {
			b.WriteString(line)
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// TestRunBatchDeterministic pins the batch mode: the per-job stdout summary
// is byte-identical for any worker count, and a failing job flips the exit
// code without poisoning the rest.
func TestRunBatchDeterministic(t *testing.T) {
	dir := t.TempDir()
	a := writeReads(t, dir, "a.fasta", 51, 100)
	b := writeReads(t, dir, "b.fasta", 52, 80)
	manifest := filepath.Join(dir, "jobs.manifest")
	content := fmt.Sprintf("# mixed-engine batch\n%s software\n%s pim subarrays=16\n%s drisa-3t1c k=18\n%s software k=20\n", a, b, a, b)
	if err := os.WriteFile(manifest, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}

	var baseline string
	for _, workers := range []string{"1", "4"} {
		var stdout, stderr bytes.Buffer
		code := run([]string{"-batch", manifest, "-workers", workers}, &stdout, &stderr)
		if code != exitOK {
			t.Fatalf("workers=%s: exit code = %d, stderr: %s", workers, code, stderr.String())
		}
		got := stdout.String()
		for _, want := range []string{"batch: 4 jobs", "job 0:", "job 3:", "state=done", "analytical:", "functional:"} {
			if !strings.Contains(got, want) {
				t.Fatalf("workers=%s: stdout lacks %q:\n%s", workers, want, got)
			}
		}
		if !strings.Contains(stderr.String(), "jobs.done") {
			t.Fatalf("workers=%s: stderr lacks queue statistics: %s", workers, stderr.String())
		}
		// Strip the worker-count header: the per-job body must be identical.
		body := got[strings.Index(got, "\n")+1:]
		if baseline == "" {
			baseline = body
		} else if body != baseline {
			t.Fatalf("batch output differs between worker counts:\n--- workers=1\n%s--- workers=%s\n%s", baseline, workers, body)
		}
	}

	// A job with an unknown engine fails that job only.
	badManifest := filepath.Join(dir, "partial.manifest")
	if err := os.WriteFile(badManifest, []byte(fmt.Sprintf("%s software\n%s warp-drive\n", a, b)), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	code := run([]string{"-batch", badManifest}, &stdout, &stderr)
	if code != exitRuntime {
		t.Fatalf("partial failure exit code = %d, want %d", code, exitRuntime)
	}
	out := stdout.String()
	if !strings.Contains(out, "state=done") || !strings.Contains(out, "state=failed") {
		t.Fatalf("partial failure output:\n%s", out)
	}
}
