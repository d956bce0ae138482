package genome

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

// Parsers must never panic on arbitrary input — they return errors.

func FuzzFromString(f *testing.F) {
	for _, seed := range []string{"", "ACGT", "acgtu", "ACGTN", "A C G T", strings.Repeat("ACGT", 100)} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		seq, err := FromString(s)
		if err != nil {
			return
		}
		if seq.Len() != len(s) {
			t.Fatalf("parsed length %d from %d input bytes", seq.Len(), len(s))
		}
		if got := seq.String(); !strings.EqualFold(got, strings.ReplaceAll(strings.ReplaceAll(s, "u", "t"), "U", "T")) {
			t.Fatalf("round trip %q -> %q", s, got)
		}
	})
}

func FuzzReadFASTA(f *testing.F) {
	for _, seed := range []string{
		"", ">x\nACGT\n", ">a\nAC\nGT\n>b\nTTTT\n", "ACGT\n", ">only header\n",
		">x\nACGN\n", ">\n\n>\n", ">crlf\r\nACGT\r\n", ">x\nACGT", // no final newline
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		recs, err := ReadFASTA(strings.NewReader(s))
		if err != nil {
			return
		}
		for _, r := range recs {
			if r.Seq == nil {
				t.Fatal("record with nil sequence")
			}
		}
		// The streaming scanner IS the parser; a second pass must agree
		// with itself (same record count, same bytes).
		again, err := ReadFASTA(strings.NewReader(s))
		if err != nil || len(again) != len(recs) {
			t.Fatalf("reparse diverged: %v, %d vs %d records", err, len(again), len(recs))
		}
	})
}

// FuzzReadFASTQ drives the four-line parser through the malformed shapes
// real FASTQ emitters produce: quality lines shorter/longer than the
// sequence, bare and annotated '+' separators, CRLF endings, blank-line
// padding, and records truncated at every one of the four lines.
func FuzzReadFASTQ(f *testing.F) {
	for _, seed := range []string{
		"", "@r\nACGT\n+\nIIII\n", "@r\nACGT\n", "garbage", "@r\nACGT\nIIII\nIIII\n",
		"@r\nACGT\n+\nII\n",               // quality shorter than sequence
		"@r\nACGT\n+\nIIIIII\n",           // quality longer than sequence
		"@r\nACGT\n+r comment\nIIII\n",    // annotated separator
		"@r\r\nACGT\r\n+\r\nIIII\r\n",     // CRLF line endings
		"@r\n\nACGT\n\n+\n\nIIII\n",       // blank-line padding
		"@r\nACGT\n+\nIIII\n@r2\nAC\n+\n", // truncated final record (no quality)
		"@r\nACGT\n+\nIIII\n@r2\nAC\n",    // truncated final record (no separator)
		"@r\nACGT\n+\nIIII\n@r2\n",        // truncated final record (no sequence)
		"@r\nACGT\n+\nIIII\n@r2",          // truncated final record (header only)
		"@r\nACGT\n+\n@@@@\n",             // quality that looks like a header
		"@@0\nAA\n+\n00\n",                // name itself starting with '@' (fuzzer find)
		"@0\r0\nAAAA\n+\n0000",            // bare-CR line ending inside a header (fuzzer find)
		"@r\rACGT\r+\rIIII\r",             // classic-Mac CR-only line endings
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		recs, err := readAll(strings.NewReader(s), FormatFASTQ)
		if err != nil {
			return
		}
		for _, r := range recs {
			if r.Seq == nil {
				t.Fatal("record with nil sequence")
			}
			// Exactly one header marker is stripped (a name may itself
			// start with '@' when the header read "@@..."), and the name
			// never swallows a line break.
			if strings.ContainsAny(r.Name, "\r\n") {
				t.Fatalf("record name %q crosses a line boundary", r.Name)
			}
		}
	})
}

// FuzzSpillRoundTrip is the spill-format invariant behind the shard
// layer's out-of-core path: any record stream the scanner accepts — FASTA
// or FASTQ, CRLF or not — survives RecordWriter serialisation and a FASTA
// re-scan with names and sequences intact. (Quality strings are dropped by
// design; the assembly pipeline never reads them.)
func FuzzSpillRoundTrip(f *testing.F) {
	for _, seed := range []struct {
		s     string
		fastq bool
	}{
		{">x\nACGT\n>y\nTT\n", false},
		{">long\n" + strings.Repeat("ACGTACGT", 40) + "\n", false}, // wraps at 70 cols
		{">crlf\r\nACGT\r\n", false},
		{">x\nACGT", false}, // no final newline
		{"@r\nACGT\n+\nIIII\n", true},
		{"@r\r\nACGT\r\n+\r\nIIII\r\n", true},
		{"@a\nAC\n+\nII\n@b\nGGGG\n+\nIIII\n", true},
		{"", false},
	} {
		f.Add(seed.s, seed.fastq)
	}
	f.Fuzz(func(t *testing.T, s string, fastq bool) {
		format := FormatFASTA
		if fastq {
			format = FormatFASTQ
		}
		var recs []Record
		if err := ScanRecords(strings.NewReader(s), format, func(r Record) error {
			recs = append(recs, r)
			return nil
		}); err != nil || len(recs) == 0 {
			return // rejected or empty input has nothing to spill
		}
		var spill bytes.Buffer
		rw := NewRecordWriter(&spill)
		for _, r := range recs {
			if err := rw.Write(r); err != nil {
				t.Fatalf("spill write: %v", err)
			}
		}
		if err := rw.Flush(); err != nil {
			t.Fatalf("spill flush: %v", err)
		}
		var back []Record
		if err := ScanRecords(bytes.NewReader(spill.Bytes()), FormatFASTA, func(r Record) error {
			back = append(back, r)
			return nil
		}); err != nil {
			t.Fatalf("re-scan of spilled records failed: %v", err)
		}
		if len(back) != len(recs) {
			t.Fatalf("%d records out of the spill, %d in", len(back), len(recs))
		}
		for i := range recs {
			if back[i].Name != recs[i].Name {
				t.Fatalf("record %d name %q -> %q across the spill", i, recs[i].Name, back[i].Name)
			}
			if !back[i].Seq.Equal(recs[i].Seq) {
				t.Fatalf("record %d sequence changed across the spill", i)
			}
		}
	})
}

// FuzzScanRecords cross-checks the streaming scanner against the slurping
// wrappers on both formats: identical record sets, identical accept/reject
// verdicts, and error messages that carry a line position.
func FuzzScanRecords(f *testing.F) {
	for _, seed := range []string{
		">x\nACGT\n>y\nTT\n", "@r\nACGT\n+\nIIII\n", ">x\r\nAC\r\n", "@\n\n+\n\n", "",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		for _, format := range []Format{FormatFASTA, FormatFASTQ} {
			var streamed []Record
			streamErr := ScanRecords(strings.NewReader(s), format, func(r Record) error {
				streamed = append(streamed, r)
				return nil
			})
			var slurped []Record
			var slurpErr error
			if format == FormatFASTA {
				slurped, slurpErr = ReadFASTA(strings.NewReader(s))
			} else {
				slurped, slurpErr = readAll(strings.NewReader(s), FormatFASTQ)
			}
			if (streamErr == nil) != (slurpErr == nil) {
				t.Fatalf("%v: stream err %v, slurp err %v", format, streamErr, slurpErr)
			}
			if streamErr != nil {
				if !strings.Contains(streamErr.Error(), "line ") {
					t.Fatalf("%v: error %q carries no line position", format, streamErr)
				}
				continue
			}
			if len(streamed) != len(slurped) {
				t.Fatalf("%v: stream %d records, slurp %d", format, len(streamed), len(slurped))
			}
			for i := range slurped {
				if streamed[i].Name != slurped[i].Name || !streamed[i].Seq.Equal(slurped[i].Seq) {
					t.Fatalf("%v: record %d diverged", format, i)
				}
			}
		}
	})
}

// FuzzCodesMatchNext is the differential target for the code path: for
// arbitrary FASTA or FASTQ bytes, NextCodes must yield, record by record,
// exactly the bases of the Sequence each Scanner.Scan builds, and the same
// error text at the same record, sticky afterwards.
func FuzzCodesMatchNext(f *testing.F) {
	for _, seed := range []struct {
		s     string
		fastq bool
	}{
		{">x\nACGT\n>y\nTT\n", false},
		{">a\nAC\nGT\n\n>b\r\nacgu\r\n>c\n", false},
		{">cr\rACGT\rACGN\r", false},
		{"ACGT\n>late\nAC\n", false},
		{">e\n>f\nAC GT\n", false},
		{"@r\nACGT\n+\nIIII\n", true},
		{"@r\r\nACGN\r\n+\r\nIII\r\n", true},
		{"@a\nAC\n+\nII\n@b\nGGGG\n+\n", true},
		{"@a\n\nAC\n\n+\n\nII\n\nb\n", true},
		{"", false},
	} {
		f.Add(seed.s, seed.fastq)
	}
	f.Fuzz(func(t *testing.T, s string, fastq bool) {
		format := FormatFASTA
		if fastq {
			format = FormatFASTQ
		}
		bySeq := NewScanner(strings.NewReader(s), format)
		byCodes := NewScannerSource(NewScanner(strings.NewReader(s), format))
		for i := 0; ; i++ {
			var errSeq error
			if !bySeq.Scan() {
				if errSeq = bySeq.Err(); errSeq == nil {
					errSeq = io.EOF
				}
			}
			codes, errCodes := byCodes.NextCodes()
			if (errSeq == nil) != (errCodes == nil) || (errSeq != nil && errSeq.Error() != errCodes.Error()) {
				t.Fatalf("record %d: Scan error %v, NextCodes error %v", i, errSeq, errCodes)
			}
			if errSeq != nil {
				if _, again := byCodes.NextCodes(); again != errCodes {
					t.Fatalf("record %d: NextCodes error %v not sticky: then %v", i, errCodes, again)
				}
				return
			}
			if got, want := codesString(codes), bySeq.Record().Seq.String(); got != want {
				t.Fatalf("record %d: NextCodes %q, Scan %q", i, got, want)
			}
		}
	})
}
