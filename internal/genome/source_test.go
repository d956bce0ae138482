package genome

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// drain pulls every read out of src, failing on any non-EOF error.
func drain(t *testing.T, src ReadSource) []*Sequence {
	t.Helper()
	reads, err := ReadAll(src)
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	return reads
}

func mustSeqs(t *testing.T, texts ...string) []*Sequence {
	t.Helper()
	out := make([]*Sequence, len(texts))
	for i, s := range texts {
		seq, err := FromString(s)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = seq
	}
	return out
}

func TestSliceSourceYieldsInOrderAndResets(t *testing.T) {
	reads := mustSeqs(t, "ACGT", "GGGG", "TTAA")
	src := NewSliceSource(reads)
	for round := 0; round < 2; round++ {
		got := drain(t, src)
		if len(got) != len(reads) {
			t.Fatalf("round %d: got %d reads, want %d", round, len(got), len(reads))
		}
		for i := range got {
			if got[i] == reads[i] || !got[i].Equal(reads[i]) {
				t.Fatalf("round %d: read %d is %v, want a fresh copy of %v", round, i, got[i], reads[i])
			}
			// The copy is the caller's: editing it leaves the input alone.
			got[i].SetBase(0, got[i].Base(0).Complement())
			if got[i].Equal(reads[i]) {
				t.Fatalf("round %d: editing read %d changed the input", round, i)
			}
		}
		// Exhausted: EOF is sticky until Reset.
		if _, err := src.NextCodes(); err != io.EOF {
			t.Fatalf("round %d: NextCodes after drain = %v, want io.EOF", round, err)
		}
		if err := src.Reset(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSliceSourceEmpty(t *testing.T) {
	if _, err := NewSliceSource(nil).NextCodes(); err != io.EOF {
		t.Fatalf("empty source NextCodes = %v, want io.EOF", err)
	}
}

func TestScannerSourceStreamsAndPropagatesErrors(t *testing.T) {
	src := NewScannerSource(NewScanner(strings.NewReader(">a\nACGT\n>b\nGG\n"), FormatFASTA))
	got := drain(t, src)
	if len(got) != 2 || got[0].String() != "ACGT" || got[1].String() != "GG" {
		t.Fatalf("unexpected reads: %v", got)
	}
	if _, err := src.NextCodes(); err != io.EOF {
		t.Fatalf("NextCodes after drain = %v, want io.EOF", err)
	}

	bad := NewScannerSource(NewScanner(strings.NewReader(">a\nACGT\n>b\nNOPE!\n"), FormatFASTA))
	var err error
	for err == nil {
		_, err = bad.NextCodes()
	}
	if err == io.EOF {
		t.Fatal("malformed stream drained cleanly")
	}
	// The error is sticky.
	if _, again := bad.NextCodes(); again != err {
		t.Fatalf("error not sticky: %v then %v", err, again)
	}
}

func TestFileSourceRoundTripAndReset(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "reads.fasta")
	if err := os.WriteFile(path, []byte(">a\nACGTACGT\n>b\nTTTT\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	src, err := OpenFileSource(path)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	for round := 0; round < 2; round++ {
		got := drain(t, src)
		if len(got) != 2 || got[0].String() != "ACGTACGT" || got[1].String() != "TTTT" {
			t.Fatalf("round %d: unexpected reads %v", round, got)
		}
		if _, err := src.NextCodes(); err != io.EOF {
			t.Fatalf("round %d: NextCodes after drain = %v, want io.EOF", round, err)
		}
		if err := src.Reset(); err != nil {
			t.Fatal(err)
		}
	}
	if err := src.Close(); err != nil {
		t.Fatal(err)
	}
	if err := src.Close(); err != nil {
		t.Fatalf("Close not idempotent: %v", err)
	}
}

func TestFileSourceBadPathFailsEagerly(t *testing.T) {
	if _, err := OpenFileSource(filepath.Join(t.TempDir(), "nope.fasta")); err == nil {
		t.Fatal("OpenFileSource on a missing file succeeded")
	}
}

// TestNewFileSourceOpensAtFirstNext pins the lazy constructor: naming a file
// touches nothing (the file may not exist yet), the first NextCodes opens it,
// a bad path fails there and stays failed, and Reset rewinds without
// reopening.
func TestNewFileSourceOpensAtFirstNext(t *testing.T) {
	path := filepath.Join(t.TempDir(), "late.fasta")
	src := NewFileSource(path)
	if src.Path() != path {
		t.Fatalf("Path = %q, want %q", src.Path(), path)
	}
	if err := os.WriteFile(path, []byte(">a\nACGT\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		if got := drain(t, src); len(got) != 1 || got[0].String() != "ACGT" {
			t.Fatalf("round %d: unexpected reads %v", round, got)
		}
		if err := src.Reset(); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if _, err := src.NextCodes(); err == nil {
		t.Fatal("NextCodes on a vanished file succeeded")
	}
	if _, err := src.NextCodes(); err == nil || err == io.EOF {
		t.Fatalf("open failure not sticky: %v", err)
	}
}

func TestReadAllNil(t *testing.T) {
	reads, err := ReadAll(nil)
	if err != nil || reads != nil {
		t.Fatalf("ReadAll(nil) = %v, %v; want nil, nil", reads, err)
	}
}
