package genome

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"slices"
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
//
// Each base is translated to its 2-bit code as its line is read; Scan packs
// the codes into the record's Sequence, and ScannerSource.NextCodes hands
// them over as they are.
type Scanner struct {
	sc     *bufio.Scanner
	format Format
	line   int
	rec    Record
	err    error
	done   bool

	// The record in flight: its bases as 2-bit codes, one byte per base, and
	// its name. Both buffers are reused by the next record.
	codes []byte
	name  []byte
	// badAt is the offset in codes of the record's first invalid base, -1
	// while there is none, and badByte that base's input byte. The error
	// waits until the record ends, after its structural checks.
	badAt   int
	badByte byte

	// FASTA one-record lookahead: the header seen but not yet emitted.
	started     bool
	pending     []byte
	pendingLine int
	// FASTQ: the record's header line, quoted by its errors.
	header []byte
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
// The line ends at the first CR or LF; two IndexByte scans find it, since a
// single-byte search is vectorised where bytes.IndexAny walks byte by byte.
func scanRecordLines(data []byte, atEOF bool) (advance int, token []byte, err error) {
	if atEOF && len(data) == 0 {
		return 0, nil, nil
	}
	i := bytes.IndexByte(data, '\n')
	if i < 0 {
		i = len(data)
	}
	if j := bytes.IndexByte(data[:i], '\r'); j >= 0 {
		i = j
	}
	if i < len(data) {
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
	if !s.scan() {
		return false
	}
	s.rec = Record{Name: string(s.name), Seq: packCodes(s.codes)}
	return true
}

// scan parses the next record into codes and name, without building it.
func (s *Scanner) scan() bool {
	if s.err != nil || s.done {
		return false
	}
	s.codes, s.badAt = s.codes[:0], -1
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

// appendBases appends the 2-bit codes of text to the record's codes,
// noting the record's first invalid base.
func (s *Scanner) appendBases(text []byte) {
	at := len(s.codes)
	s.codes = slices.Grow(s.codes, len(text))[:at+len(text)]
	if i := translate(s.codes[at:], text); i >= 0 && s.badAt < 0 {
		s.badAt, s.badByte = at+i, text[i]
	}
}

// badBase is the error of the record's first invalid base, worded as
// parseBases words it.
func (s *Scanner) badBase() error {
	_, err := ParseBase(s.badByte)
	return fmt.Errorf("position %d: %w", s.badAt, err)
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
			s.appendBases(text)
			continue
		}
		emit := s.started
		if emit && !s.flushFASTA() {
			return false
		}
		// The pending header's name becomes the emitted record's, and this
		// header becomes the pending one, in the other buffer.
		s.name, s.pending = s.pending, append(s.name[:0], bytes.TrimSpace(text[1:])...)
		s.pendingLine = s.line
		s.started = true
		if emit {
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
	if !s.flushFASTA() {
		return false
	}
	s.name, s.pending = s.pending, s.name[:0]
	return true
}

// flushFASTA ends the pending record: it fails on the record's first
// invalid base.
func (s *Scanner) flushFASTA() bool {
	if s.badAt >= 0 {
		s.err = fmt.Errorf("genome: line %d: record %q: %w", s.pendingLine, s.pending, s.badBase())
		return false
	}
	return true
}

func (s *Scanner) scanFASTQ() bool {
	line, ok := s.nextLine()
	if !ok {
		s.done = s.err == nil
		return false
	}
	s.header = append(s.header[:0], line...)
	headerLine := s.line
	if s.header[0] != '@' {
		s.err = fmt.Errorf("genome: line %d: expected @header, got %q", s.line, s.header)
		return false
	}
	seqText, ok := s.nextLine()
	if !ok {
		if s.err == nil {
			s.err = fmt.Errorf("genome: line %d: truncated record %q", headerLine, s.header)
		}
		return false
	}
	// The line's bytes do not outlive the next read, so the bases are
	// translated now; a bad base is still reported after the structural
	// checks.
	s.appendBases(seqText)
	seqLine, seqLen := s.line, len(seqText)
	plus, ok := s.nextLine()
	if !ok || plus[0] != '+' {
		if s.err == nil {
			s.err = fmt.Errorf("genome: line %d: expected + separator for record %q", s.line, s.header)
		}
		return false
	}
	qual, ok := s.nextLine()
	if !ok {
		if s.err == nil {
			s.err = fmt.Errorf("genome: line %d: record %q: missing quality line", headerLine, s.header)
		}
		return false
	}
	if len(qual) != seqLen {
		s.err = fmt.Errorf("genome: line %d: record %q: quality length %d != sequence length %d",
			s.line, s.header, len(qual), seqLen)
		return false
	}
	if s.badAt >= 0 {
		s.err = fmt.Errorf("genome: line %d: record %q: %w", seqLine, s.header, s.badBase())
		return false
	}
	// Trim the name exactly as the FASTA path does, so a record's name is
	// format-independent and survives a FASTA re-serialisation (the spill
	// round-trip) byte-identically.
	s.name = append(s.name[:0], bytes.TrimSpace(s.header[1:])...)
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
