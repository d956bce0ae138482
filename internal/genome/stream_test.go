package genome

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"
)

func TestScannerFASTA(t *testing.T) {
	in := ">seq1 description\r\nACGT\r\nACGT\r\n\r\n>seq2\nTTTT\n"
	s := NewScanner(strings.NewReader(in), FormatFASTA)
	var recs []Record
	for s.Scan() {
		recs = append(recs, s.Record())
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d records", len(recs))
	}
	if recs[0].Name != "seq1 description" || recs[0].Seq.String() != "ACGTACGT" {
		t.Fatalf("record 0: %q %q", recs[0].Name, recs[0].Seq.String())
	}
	if recs[1].Name != "seq2" || recs[1].Seq.String() != "TTTT" {
		t.Fatalf("record 1: %q %q", recs[1].Name, recs[1].Seq.String())
	}
	if s.Scan() {
		t.Fatal("Scan returned true after end of stream")
	}
}

func TestScannerFASTQCRLF(t *testing.T) {
	in := "@r1\r\nACGT\r\n+\r\nIIII\r\n@r2\r\nGGCC\r\n+r2\r\nJJJJ\r\n"
	s := NewScanner(strings.NewReader(in), FormatFASTQ)
	var names []string
	for s.Scan() {
		names = append(names, s.Record().Name)
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != "r1" || names[1] != "r2" {
		t.Fatalf("names %v", names)
	}
}

// TestScannerErrorPositions pins the per-record line numbers in parse
// errors — the diagnostic the streaming layer adds over the old slurpers.
func TestScannerErrorPositions(t *testing.T) {
	cases := []struct {
		format Format
		in     string
		line   string // substring the error must carry
	}{
		{FormatFASTA, ">ok\nACGT\n>bad\nACGN\n", "line 3"},
		{FormatFASTA, "ACGT\n", "line 1"},
		{FormatFASTQ, "@r1\nACGT\n+\nIIII\nr2\nACGT\n+\nIIII\n", "line 5"},
		{FormatFASTQ, "@r1\nACGN\n+\nIIII\n", "line 2"},
		{FormatFASTQ, "@r1\nACGT\n+\nIII\n", "quality length 3 != sequence length 4"},
	}
	for _, c := range cases {
		s := NewScanner(strings.NewReader(c.in), c.format)
		for s.Scan() {
		}
		if s.Err() == nil {
			t.Errorf("%v %q: no error", c.format, c.in)
			continue
		}
		if !strings.Contains(s.Err().Error(), c.line) {
			t.Errorf("%v %q: error %q does not mention %q", c.format, c.in, s.Err(), c.line)
		}
	}
}

func TestScanRecordsAbort(t *testing.T) {
	abort := errors.New("enough")
	n := 0
	err := ScanRecords(strings.NewReader(">a\nAC\n>b\nGT\n>c\nTT\n"), FormatFASTA, func(Record) error {
		n++
		if n == 2 {
			return abort
		}
		return nil
	})
	if !errors.Is(err, abort) {
		t.Fatalf("err = %v, want the callback's error", err)
	}
	if n != 2 {
		t.Fatalf("callback ran %d times, want 2", n)
	}
}

func TestScanRecordsMatchesSlurp(t *testing.T) {
	in := ">a\nACGTAC\nGT\n\n>b\nTT\n>c\nGGGG\n"
	want, err := ReadFASTA(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	var got []Record
	if err := ScanRecords(strings.NewReader(in), FormatFASTA, func(r Record) error {
		got = append(got, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("stream %d records, slurp %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Name != want[i].Name || !got[i].Seq.Equal(want[i].Seq) {
			t.Fatalf("record %d: stream %+v, slurp %+v", i, got[i], want[i])
		}
	}
}

func TestDetectFormat(t *testing.T) {
	cases := map[string]Format{
		"reads.fasta": FormatFASTA,
		"reads.fa":    FormatFASTA,
		"reads.fastq": FormatFASTQ,
		"reads.fq":    FormatFASTQ,
		"reads":       FormatFASTA,
	}
	for path, want := range cases {
		if got := DetectFormat(path); got != want {
			t.Errorf("DetectFormat(%q) = %v, want %v", path, got, want)
		}
	}
}

func TestRecordWriterMatchesWriteFASTA(t *testing.T) {
	recs := []Record{
		{Name: "a", Seq: MustFromString(strings.Repeat("ACGT", 40))},
		{Name: "b", Seq: MustFromString("GG")},
	}
	var batch, streamed strings.Builder
	if err := WriteFASTA(&batch, recs); err != nil {
		t.Fatal(err)
	}
	rw := NewRecordWriter(&streamed)
	for _, rec := range recs {
		if err := rw.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := rw.Flush(); err != nil {
		t.Fatal(err)
	}
	if batch.String() != streamed.String() {
		t.Fatal("streamed output differs from WriteFASTA")
	}
}

// fastaGen synthesizes an endless FASTA stream record by record, so the
// bounded-memory test can feed the scanner far more text than any buffer it
// is allowed to hold.
type fastaGen struct {
	records int // total records to emit
	next    int
	buf     []byte
}

func (g *fastaGen) Read(p []byte) (int, error) {
	for len(g.buf) == 0 {
		if g.next >= g.records {
			return 0, io.EOF
		}
		g.buf = fmt.Appendf(g.buf, ">read_%d\n%s\n", g.next, strings.Repeat("ACGTGGTA", 13))
		g.next++
	}
	n := copy(p, g.buf)
	g.buf = g.buf[n:]
	return n, nil
}

// TestScanBoundedMemory streams a read set ~32x the scanner's initial
// buffer (and far beyond any reasonable record size) through ScanRecords
// without retaining records, sampling the live heap as it goes: each sample
// collects first, so it counts what the scan holds, not garbage the
// collector has yet to reach (whose amount follows the GC goal, and so the
// rest of the package's heap). The peak live-heap growth must stay bounded
// by a small constant — the streaming guarantee the slurping ReadFASTA
// cannot give.
func TestScanBoundedMemory(t *testing.T) {
	const (
		records = 300_000 // ~113 bytes each: ~32 MiB of input text
		bound   = 16 << 20
	)
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	baseline := ms.HeapAlloc

	var peak uint64
	var count, bases int
	err := ScanRecords(&fastaGen{records: records}, FormatFASTA, func(rec Record) error {
		count++
		bases += rec.Seq.Len()
		if count%50_000 == 0 {
			runtime.GC()
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > peak {
				peak = ms.HeapAlloc
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != records || bases != records*104 {
		t.Fatalf("streamed %d records / %d bases, want %d / %d", count, bases, records, records*104)
	}
	if peak > baseline && peak-baseline > bound {
		t.Fatalf("peak heap grew %d bytes while streaming ~32 MiB, want < %d", peak-baseline, bound)
	}
}
