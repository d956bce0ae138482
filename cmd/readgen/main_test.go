package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pimassembler/internal/genome"
)

// TestRunUsageErrors is the bad-flag regression table: sizes that do not fit
// together exit 2 with a one-line message — the generators' panics never
// reach the user — and -out is neither created nor truncated.
func TestRunUsageErrors(t *testing.T) {
	cases := []struct {
		name   string
		args   []string
		stderr string // required substring of stderr
	}{
		{"bad-flag", []string{"-no-such-flag"}, "flag provided but not defined"},
		{"bad-flag-value", []string{"-genome", "banana"}, "invalid value"},
		{"read-longer-than-genome", []string{"-genome", "50", "-len", "101"}, "-len 101 outside"},
		{"zero-read-length", []string{"-len", "0"}, "-len 0 outside"},
		{"negative-reads", []string{"-reads", "-1"}, "-reads -1"},
		{"error-rate-one", []string{"-errors", "1"}, "-errors 1 outside [0,1)"},
		{"negative-error-rate", []string{"-errors", "-0.1"}, "-errors -0.1 outside [0,1)"},
		{"repeat-longer-than-genome", []string{"-genome", "400", "-repeats", "1"}, "-repeats plants 500 bp"},
		{"insert-too-small", []string{"-paired", "-insert", "150"}, "cannot hold two 101 bp reads"},
		{"insert-exceeds-genome", []string{"-paired", "-genome", "450"}, "too large for -genome 450"},
		{"fastq-out", []string{"-out", "n.fastq"}, `-out "n.fastq" names a FASTQ file`},
		{"fastq-ref", []string{"-ref", "genome.fq"}, `-ref "genome.fq" names a FASTQ file`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out := filepath.Join(t.TempDir(), "reads.fasta")
			if err := os.WriteFile(out, []byte("precious"), 0o644); err != nil {
				t.Fatal(err)
			}
			var stdout, stderr bytes.Buffer
			code := run(append([]string{"-out", out}, tc.args...), &stdout, &stderr)
			if code != exitUsage {
				t.Fatalf("exit code = %d, want %d (stderr: %s)", code, exitUsage, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.stderr) {
				t.Fatalf("stderr %q lacks %q", stderr.String(), tc.stderr)
			}
			if got, err := os.ReadFile(out); err != nil || string(got) != "precious" {
				t.Fatalf("-out touched on a usage error: %q, %v", got, err)
			}
		})
	}
}

// generate runs readgen into a fresh file and returns the bytes written.
func generate(t *testing.T, args ...string) []byte {
	t.Helper()
	out := filepath.Join(t.TempDir(), "reads.fasta")
	var stdout, stderr bytes.Buffer
	if code := run(append([]string{"-out", out}, args...), &stdout, &stderr); code != exitOK {
		t.Fatalf("exit code = %d, stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "wrote ") {
		t.Fatalf("stdout lacks summary: %s", stdout.String())
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestRunDeterministic pins the dataset contract: same seed, same bytes;
// another seed, other reads.
func TestRunDeterministic(t *testing.T) {
	withSeed := func(seed string) []byte {
		return generate(t, "-genome", "2000", "-reads", "40", "-errors", "0.01", "-repeats", "2", "-seed", seed)
	}
	a := withSeed("3")
	if !bytes.Equal(a, withSeed("3")) {
		t.Fatal("same seed produced different bytes")
	}
	if bytes.Equal(a, withSeed("4")) {
		t.Fatal("different seeds produced identical bytes")
	}
}

// TestRunPaired pins the paired layout: interleaved /1 /2 records of the
// requested length, and the -ref genome beside them.
func TestRunPaired(t *testing.T) {
	ref := filepath.Join(t.TempDir(), "genome.fasta")
	data := generate(t, "-genome", "2000", "-reads", "10", "-len", "50", "-paired", "-insert", "200", "-ref", ref)
	var names []string
	err := genome.ScanRecords(bytes.NewReader(data), genome.FormatFASTA, func(r genome.Record) error {
		if r.Seq.Len() != 50 {
			t.Errorf("%s is %d bp, want 50", r.Name, r.Seq.Len())
		}
		names = append(names, r.Name)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := "read_0/1 read_0/2 read_1/1 read_1/2 read_2/1 read_2/2 read_3/1 read_3/2 read_4/1 read_4/2"
	if got := strings.Join(names, " "); got != want {
		t.Fatalf("record names = %s, want %s", got, want)
	}
	refData, err := os.ReadFile(ref)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(refData), ">reference\n") {
		t.Fatalf("-ref lacks the reference record: %.40s", refData)
	}
}

// TestRunUnwritableOut pins the runtime-failure exit code.
func TestRunUnwritableOut(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-out", filepath.Join(t.TempDir(), "no-such-dir", "reads.fasta")}, &stdout, &stderr)
	if code != exitRuntime || !strings.Contains(stderr.String(), "readgen:") {
		t.Fatalf("exit code = %d, want %d (stderr: %s)", code, exitRuntime, stderr.String())
	}
}
