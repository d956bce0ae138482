package genome

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strings"
)

// Format selects the record syntax of a read stream.
type Format int

const (
	// FormatFASTA is header-plus-wrapped-sequence records (">name").
	FormatFASTA Format = iota
	// FormatFASTQ is four-line records ("@name", sequence, "+", quality).
	FormatFASTQ
)

var formatNames = [...]string{FormatFASTA: "fasta", FormatFASTQ: "fastq"}

// String implements fmt.Stringer.
func (f Format) String() string {
	if int(f) < len(formatNames) {
		return formatNames[f]
	}
	return "unknown"
}

// DetectFormat infers the stream format from a file name: .fastq and .fq
// (the conventional extensions) select FASTQ, everything else FASTA.
func DetectFormat(path string) Format {
	if strings.HasSuffix(path, ".fastq") || strings.HasSuffix(path, ".fq") {
		return FormatFASTQ
	}
	return FormatFASTA
}

// Scanner buffer sizing: lines up to scannerMaxLine are accepted, with
// scannerInitBuf allocated up front. Memory use is bounded by the longest
// single record, never by the stream length.
const (
	scannerInitBuf = 1 << 16
	scannerMaxLine = 1 << 24
)

// Scanner streams FASTA or FASTQ records one at a time, holding only the
// record in flight — the bounded-memory ingestion path for read sets that
// do not fit beside the assembly working set. It is tolerant of LF, CRLF,
// and bare-CR line endings and surrounding whitespace (every line is
// trimmed), skips blank lines, and reports malformed input with the line
// number of the offending record. Usage mirrors bufio.Scanner:
//
//	s := genome.NewScanner(r, genome.FormatFASTA)
//	for s.Scan() {
//		rec := s.Record()
//		...
//	}
//	if err := s.Err(); err != nil { ... }
type Scanner struct {
	sc     *bufio.Scanner
	format Format
	line   int
	rec    Record
	err    error
	done   bool

	// FASTA one-record lookahead: the header seen but not yet emitted, and
	// the sequence lines gathered so far (the buffer is reused per record).
	started  bool
	name     string
	nameLine int
	seqText  []byte
}

// NewScanner wraps r in a streaming record scanner for the given format.
func NewScanner(r io.Reader, format Format) *Scanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, scannerInitBuf), scannerMaxLine)
	sc.Split(scanRecordLines)
	return &Scanner{sc: sc, format: format}
}

// scanRecordLines is bufio.ScanLines extended to every line-ending
// convention: a line ends at "\n", "\r\n", or a bare "\r" (classic Mac).
// bufio.ScanLines only splits on '\n', so a stray CR inside a header would
// otherwise survive TrimSpace and embed a line boundary in a record name.
func scanRecordLines(data []byte, atEOF bool) (advance int, token []byte, err error) {
	if atEOF && len(data) == 0 {
		return 0, nil, nil
	}
	if i := bytes.IndexAny(data, "\r\n"); i >= 0 {
		advance = i + 1
		if data[i] == '\r' {
			if i+1 < len(data) {
				if data[i+1] == '\n' {
					advance = i + 2
				}
			} else if !atEOF {
				// CR at the buffer edge: wait to see whether LF follows.
				return 0, nil, nil
			}
		}
		return advance, data[:i], nil
	}
	if atEOF {
		return len(data), data, nil
	}
	return 0, nil, nil
}

// Scan advances to the next record. It returns false at end of stream or on
// the first malformed record; Err distinguishes the two.
func (s *Scanner) Scan() bool {
	if s.err != nil || s.done {
		return false
	}
	if s.format == FormatFASTQ {
		return s.scanFASTQ()
	}
	return s.scanFASTA()
}

// Record returns the record parsed by the last successful Scan. The record
// is owned by the caller; the scanner never aliases it.
func (s *Scanner) Record() Record { return s.rec }

// Err returns the first error encountered (nil at a clean end of stream).
func (s *Scanner) Err() error { return s.err }

// nextLine returns the next non-blank trimmed line; the bytes are valid
// until the following call.
func (s *Scanner) nextLine() ([]byte, bool) {
	for s.sc.Scan() {
		s.line++
		if t := bytes.TrimSpace(s.sc.Bytes()); len(t) > 0 {
			return t, true
		}
	}
	if err := s.sc.Err(); err != nil {
		s.err = err
	}
	return nil, false
}

func (s *Scanner) scanFASTA() bool {
	for {
		text, ok := s.nextLine()
		if !ok {
			break
		}
		if text[0] != '>' {
			if !s.started {
				s.err = fmt.Errorf("genome: line %d: sequence data before first header", s.line)
				return false
			}
			s.seqText = append(s.seqText, text...)
			continue
		}
		emit := s.started
		var rec Record
		if emit {
			if rec, ok = s.flushFASTA(); !ok {
				return false
			}
		}
		s.name = string(bytes.TrimSpace(text[1:]))
		s.nameLine = s.line
		s.started = true
		if emit {
			s.rec = rec
			return true
		}
	}
	if s.err != nil {
		return false
	}
	s.done = true
	if !s.started {
		return false
	}
	s.started = false
	rec, ok := s.flushFASTA()
	if !ok {
		return false
	}
	s.rec = rec
	return true
}

// flushFASTA converts the buffered lookahead into a record.
func (s *Scanner) flushFASTA() (Record, bool) {
	seq, err := parseBases(s.seqText)
	if err != nil {
		s.err = fmt.Errorf("genome: line %d: record %q: %w", s.nameLine, s.name, err)
		return Record{}, false
	}
	s.seqText = s.seqText[:0]
	return Record{Name: s.name, Seq: seq}, true
}

func (s *Scanner) scanFASTQ() bool {
	line, ok := s.nextLine()
	if !ok {
		s.done = s.err == nil
		return false
	}
	header := string(line)
	headerLine := s.line
	if !strings.HasPrefix(header, "@") {
		s.err = fmt.Errorf("genome: line %d: expected @header, got %q", s.line, header)
		return false
	}
	seqText, ok := s.nextLine()
	if !ok {
		if s.err == nil {
			s.err = fmt.Errorf("genome: line %d: truncated record %q", headerLine, header)
		}
		return false
	}
	// The line's bytes do not outlive the next read, so the sequence is
	// parsed now; a bad base is still reported after the structural checks.
	seq, seqErr := parseBases(seqText)
	seqLine, seqLen := s.line, len(seqText)
	plus, ok := s.nextLine()
	if !ok || plus[0] != '+' {
		if s.err == nil {
			s.err = fmt.Errorf("genome: line %d: expected + separator for record %q", s.line, header)
		}
		return false
	}
	qual, ok := s.nextLine()
	if !ok {
		if s.err == nil {
			s.err = fmt.Errorf("genome: line %d: record %q: missing quality line", headerLine, header)
		}
		return false
	}
	if len(qual) != seqLen {
		s.err = fmt.Errorf("genome: line %d: record %q: quality length %d != sequence length %d",
			s.line, header, len(qual), seqLen)
		return false
	}
	if seqErr != nil {
		s.err = fmt.Errorf("genome: line %d: record %q: %w", seqLine, header, seqErr)
		return false
	}
	// Trim the name exactly as the FASTA path does, so a record's name is
	// format-independent and survives a FASTA re-serialisation (the spill
	// round-trip) byte-identically.
	s.rec = Record{Name: strings.TrimSpace(strings.TrimPrefix(header, "@")), Seq: seq}
	return true
}

// ScanRecords streams every record of r to fn in input order, with the
// Scanner's bounded-memory guarantee. A non-nil error from fn aborts the
// scan and is returned verbatim.
func ScanRecords(r io.Reader, format Format, fn func(Record) error) error {
	s := NewScanner(r, format)
	for s.Scan() {
		if err := fn(s.Record()); err != nil {
			return err
		}
	}
	return s.Err()
}

// RecordWriter streams FASTA records to an underlying writer one at a time
// (70-column wrapping, matching WriteFASTA) without buffering the set —
// the output-side counterpart of Scanner.
type RecordWriter struct {
	bw *bufio.Writer
}

// NewRecordWriter wraps w in a streaming FASTA writer. Call Flush when done.
func NewRecordWriter(w io.Writer) *RecordWriter {
	return &RecordWriter{bw: bufio.NewWriter(w)}
}

// Write appends one record.
func (rw *RecordWriter) Write(rec Record) error {
	if _, err := fmt.Fprintf(rw.bw, ">%s\n", rec.Name); err != nil {
		return err
	}
	s := rec.Seq.String()
	for len(s) > 0 {
		n := 70
		if len(s) < n {
			n = len(s)
		}
		if _, err := rw.bw.WriteString(s[:n]); err != nil {
			return err
		}
		if err := rw.bw.WriteByte('\n'); err != nil {
			return err
		}
		s = s[n:]
	}
	return nil
}

// Flush drains the buffered output.
func (rw *RecordWriter) Flush() error { return rw.bw.Flush() }
