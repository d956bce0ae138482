package genome

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// codesString renders 2-bit codes as letters; a byte outside 0-3 shows as
// '?', so a leaked invalid code cannot pass for a base.
func codesString(codes []byte) string {
	out := make([]byte, len(codes))
	for i, c := range codes {
		out[i] = '?'
		if c < 4 {
			out[i] = Base(c).Letter()
		}
	}
	return string(out)
}

// drainResults pulls up to limit results out of next: each read's bases as
// letters, or "!" and the error text. It stops after the first error has
// repeated, so the list also shows that the error is sticky.
func drainResults(next func() (string, error), limit int) []string {
	var out []string
	for len(out) < limit {
		s, err := next()
		if err == nil {
			out = append(out, s)
			continue
		}
		out = append(out, "!"+err.Error())
		if n := len(out); n >= 2 && out[n-2] == out[n-1] {
			break
		}
	}
	return out
}

func nextCodeLetters(src ReadSource) func() (string, error) {
	return func() (string, error) {
		codes, err := src.NextCodes()
		return codesString(codes), err
	}
}

// overLong in a pinned input stands for a line one byte longer than the
// scanner accepts. It is expanded only while the test runs: a package-level
// 16 MiB string would stay live and move every other test's GC pacing.
const overLong = "<over-long line>"

// ingestPins are hostile and edge-case inputs with what the scanner yielded
// for them before it translated bases to codes: each read's bases, then the
// error text, which repeats because it is sticky. NextCodes must still yield
// exactly this, byte for byte.
var ingestPins = []struct {
	name   string
	format Format
	in     string
	want   []string
}{
	{"fasta bad base in second record", FormatFASTA, ">ok\nACGT\n>bad\nACGN\n",
		[]string{"ACGT", "!genome: line 3: record \"bad\": position 3: genome: invalid base 'N'", "!genome: line 3: record \"bad\": position 3: genome: invalid base 'N'"}},
	{"fasta data before header", FormatFASTA, "ACGT\n",
		[]string{"!genome: line 1: sequence data before first header", "!genome: line 1: sequence data before first header"}},
	{"fasta multi-line bad base", FormatFASTA, ">x\nAC\nGT\nANN\n>y\nAC\n",
		[]string{"!genome: line 1: record \"x\": position 5: genome: invalid base 'N'", "!genome: line 1: record \"x\": position 5: genome: invalid base 'N'"}},
	{"fasta crlf bad base", FormatFASTA, ">crlf\r\nACGT\r\nAXGT\r\n",
		[]string{"!genome: line 1: record \"crlf\": position 5: genome: invalid base 'X'", "!genome: line 1: record \"crlf\": position 5: genome: invalid base 'X'"}},
	{"fasta bare cr", FormatFASTA, ">cr\rACGT\rACGU\racgx\r",
		[]string{"!genome: line 1: record \"cr\": position 11: genome: invalid base 'x'", "!genome: line 1: record \"cr\": position 11: genome: invalid base 'x'"}},
	{"fasta empty record", FormatFASTA, ">e\n>f\nAC\n>g\n",
		[]string{"", "AC", "", "!EOF", "!EOF"}},
	{"fasta blank lines and inner space", FormatFASTA, "\n\n>x  name \n\nAC GT\n",
		[]string{"!genome: line 3: record \"x  name\": position 2: genome: invalid base ' '", "!genome: line 3: record \"x  name\": position 2: genome: invalid base ' '"}},
	{"fasta no final newline", FormatFASTA, ">x\nACGT\n>y\nTT",
		[]string{"ACGT", "TT", "!EOF", "!EOF"}},
	{"fasta quoted name", FormatFASTA, ">\"q\"\tname\\\nACGTZ\n",
		[]string{"!genome: line 1: record \"\\\"q\\\"\\tname\\\\\": position 4: genome: invalid base 'Z'", "!genome: line 1: record \"\\\"q\\\"\\tname\\\\\": position 4: genome: invalid base 'Z'"}},
	{"fasta invalid utf8 name", FormatFASTA, ">ok\nA\n>\xff\xfe\nN\n",
		[]string{"A", "!genome: line 3: record \"\\xff\\xfe\": position 0: genome: invalid base 'N'", "!genome: line 3: record \"\\xff\\xfe\": position 0: genome: invalid base 'N'"}},
	{"fasta bad base then clean records", FormatFASTA, ">a\nNA\n>b\nAC\n",
		[]string{"!genome: line 1: record \"a\": position 0: genome: invalid base 'N'", "!genome: line 1: record \"a\": position 0: genome: invalid base 'N'"}},
	{"fastq missing header marker", FormatFASTQ, "@r1\nACGT\n+\nIIII\nr2\nACGT\n+\nIIII\n",
		[]string{"ACGT", "!genome: line 5: expected @header, got \"r2\"", "!genome: line 5: expected @header, got \"r2\""}},
	{"fastq bad base", FormatFASTQ, "@r1\nACGN\n+\nIIII\n",
		[]string{"!genome: line 2: record \"@r1\": position 3: genome: invalid base 'N'", "!genome: line 2: record \"@r1\": position 3: genome: invalid base 'N'"}},
	{"fastq quality before bad base", FormatFASTQ, "@r1\nACGN\n+\nIII\n",
		[]string{"!genome: line 4: record \"@r1\": quality length 3 != sequence length 4", "!genome: line 4: record \"@r1\": quality length 3 != sequence length 4"}},
	{"fastq no separator", FormatFASTQ, "@r1\nACGN\n",
		[]string{"!genome: line 2: expected + separator for record \"@r1\"", "!genome: line 2: expected + separator for record \"@r1\""}},
	{"fastq header only", FormatFASTQ, "@r1\n",
		[]string{"!genome: line 1: truncated record \"@r1\"", "!genome: line 1: truncated record \"@r1\""}},
	{"fastq missing quality", FormatFASTQ, "@r1\nACGT\n+\n",
		[]string{"!genome: line 1: record \"@r1\": missing quality line", "!genome: line 1: record \"@r1\": missing quality line"}},
	{"fastq crlf bad base", FormatFASTQ, "@r1\r\nACGT\r\n+\r\nIIII\r\n@r2 x\r\nAXGT\r\n+\r\nIIII\r\n",
		[]string{"ACGT", "!genome: line 6: record \"@r2 x\": position 1: genome: invalid base 'X'", "!genome: line 6: record \"@r2 x\": position 1: genome: invalid base 'X'"}},
	{"fastq separator replaced", FormatFASTQ, "@r1\nACGN\nIIII\nIIII\n",
		[]string{"!genome: line 3: expected + separator for record \"@r1\"", "!genome: line 3: expected + separator for record \"@r1\""}},
	{"fastq blank padding", FormatFASTQ, "@r\n\nACGT\n\n+\n\nIIII\n\n@s\nGG\n+\nII\n",
		[]string{"ACGT", "GG", "!EOF", "!EOF"}},
	{"fastq at-name", FormatFASTQ, "@@0\nAA\n+\n00\n",
		[]string{"AA", "!EOF", "!EOF"}},
	{"fasta over-long line", FormatFASTA, ">a\nAC\n>x\n" + overLong + "\n",
		[]string{"AC", "!bufio.Scanner: token too long", "!bufio.Scanner: token too long"}},
	{"fastq over-long line", FormatFASTQ, "@a\nAC\n+\nII\n@x\n" + overLong + "\n",
		[]string{"AC", "!bufio.Scanner: token too long", "!bufio.Scanner: token too long"}},
}

// TestIngestPinned drives every pinned input through NextCodes of a
// ScannerSource and of a FileSource.
func TestIngestPinned(t *testing.T) {
	dir := t.TempDir()
	for i, c := range ingestPins {
		c.in = strings.ReplaceAll(c.in, overLong, strings.Repeat("A", scannerMaxLine+1))
		path := filepath.Join(dir, fmt.Sprintf("case%d.%s", i, map[Format]string{FormatFASTA: "fa", FormatFASTQ: "fq"}[c.format]))
		if err := os.WriteFile(path, []byte(c.in), 0o644); err != nil {
			t.Fatal(err)
		}
		for _, d := range []struct {
			path string
			next func() (string, error)
		}{
			{"ScannerSource", nextCodeLetters(NewScannerSource(NewScanner(strings.NewReader(c.in), c.format)))},
			{"FileSource", nextCodeLetters(NewFileSource(path))},
		} {
			got := drainResults(d.next, len(c.want)+2)
			if fmt.Sprintf("%q", got) != fmt.Sprintf("%q", c.want) {
				t.Errorf("%s, %s:\n got %q\nwant %q", c.name, d.path, got, c.want)
			}
		}
	}
}

// TestCodesAdapter: a SliceSource adapts Sequences to codes, unpacking
// each read into one reused buffer, so the codes it lent for one read are
// overwritten by the next.
func TestCodesAdapter(t *testing.T) {
	reads := mustSeqs(t, "ACGTACGTA", "", "T", "GGCCAATT")
	src := NewSliceSource(reads)
	var first []byte
	for i, want := range reads {
		codes, err := src.NextCodes()
		if err != nil || codesString(codes) != want.String() {
			t.Fatalf("read %d: %q, %v; want %q", i, codesString(codes), err, want.String())
		}
		if i == 0 {
			first = codes
		}
	}
	if codesString(first[:4]) != "GGCC" {
		t.Fatalf("first read's codes now read %q: the buffer was not reused", codesString(first[:4]))
	}
	if _, err := src.NextCodes(); err != io.EOF {
		t.Fatalf("adapter at the end = %v, want io.EOF", err)
	}
}

// TestAppendCodesMatchesBase unpacks sequences of every length mod 4 onto a
// non-empty prefix and checks each code against Base, and packCodes back.
func TestAppendCodesMatchesBase(t *testing.T) {
	for n := 0; n <= 41; n++ {
		s := NewSequence(n)
		for i := 0; i < n; i++ {
			s.SetBase(i, Base((i*7+n)%4))
		}
		codes := s.AppendCodes([]byte{9})
		if len(codes) != n+1 || codes[0] != 9 {
			t.Fatalf("n=%d: AppendCodes returned %d codes, prefix %d", n, len(codes), codes[0])
		}
		for i := 0; i < n; i++ {
			if Base(codes[i+1]) != s.Base(i) {
				t.Fatalf("n=%d: code %d is %d, base %v", n, i, codes[i+1], s.Base(i))
			}
		}
		if back := packCodes(codes[1:]); !back.Equal(s) || !bytes.Equal(back.packed, s.packed) {
			t.Fatalf("n=%d: packCodes(AppendCodes) = %v, want %v", n, back, s)
		}
	}
}

// TestAppendCodesRangeMatchesBase unpacks every range of sequences of every
// length mod 4 onto a non-empty prefix and checks each code against Base.
func TestAppendCodesRangeMatchesBase(t *testing.T) {
	for n := 0; n <= 13; n++ {
		s := NewSequence(n)
		for i := 0; i < n; i++ {
			s.SetBase(i, Base((i*5+n)%4))
		}
		for from := 0; from <= n; from++ {
			for to := from; to <= n; to++ {
				codes := s.AppendCodesRange([]byte{9}, from, to)
				if len(codes) != to-from+1 || codes[0] != 9 {
					t.Fatalf("n=%d [%d,%d): returned %d codes, prefix %d", n, from, to, len(codes), codes[0])
				}
				for i := from; i < to; i++ {
					if Base(codes[i-from+1]) != s.Base(i) {
						t.Fatalf("n=%d [%d,%d): code %d is %d, base %v", n, from, to, i, codes[i-from+1], s.Base(i))
					}
				}
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("AppendCodesRange past the end did not panic")
		}
	}()
	NewSequence(4).AppendCodesRange(nil, 2, 5)
}

// TestNextCodesAllocs is the ingest path's allocation guard: draining 1 000
// FASTA records through NextCodes allocates the scanner and its buffers
// once, and nothing per record.
func TestNextCodesAllocs(t *testing.T) {
	const records = 1000
	var fasta bytes.Buffer
	for i := 0; i < records; i++ {
		fmt.Fprintf(&fasta, ">read%d some description\n%s\n%s\n", i, strings.Repeat("ACGTTGCA", 8), strings.Repeat("GATTACA", 5))
	}
	allocs := testing.AllocsPerRun(5, func() {
		src := NewScannerSource(NewScanner(bytes.NewReader(fasta.Bytes()), FormatFASTA))
		n := 0
		for {
			codes, err := src.NextCodes()
			if err == io.EOF {
				break
			}
			if err != nil || len(codes) != 99 {
				t.Fatalf("record %d: %d codes, %v", n, len(codes), err)
			}
			n++
		}
		if n != records {
			t.Fatalf("%d records, want %d", n, records)
		}
	})
	if perRecord := allocs / records; perRecord > 0.05 {
		t.Fatalf("%.1f allocations for %d records: %.3f per record, want at most 0.05", allocs, records, perRecord)
	}
}
