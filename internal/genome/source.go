package genome

import (
	"fmt"
	"io"
	"os"
)

// ReadSource is the streaming iterator the whole read path consumes: the
// engine layer, the job queue, and the shard dispatcher all pull reads one
// at a time instead of materialising []*Sequence, so resident memory is
// bounded by the consumer's working set, not the input size.
//
// Next returns the next read, or io.EOF (verbatim, never wrapped) after the
// last one. Any other error is a real failure; after it, further Next calls
// return the same error. A nil ReadSource is a valid empty workload for
// consumers that accept one (e.g. counts-only analytical engine runs).
// The Sequence Next returns is the caller's: no source reuses it.
//
// Sources that can rewind additionally implement
//
//	interface{ Reset() error }
//
// which the job queue requires before re-running a retry attempt. Sources
// that parse text implement CodeSource too.
type ReadSource interface {
	Next() (*Sequence, error)
}

// CodeSource is a ReadSource that can also hand over a read's bases without
// building a Sequence. NextCodes advances exactly as Next does, with the same
// errors, and returns the read's bases as 2-bit codes (Fig. 7), one byte
// (0-3) per base. The codes are borrowed: they sit in a buffer the source
// reuses, valid only until the next call to Next or NextCodes, so a caller
// that keeps a read copies it.
type CodeSource interface {
	ReadSource
	NextCodes() ([]byte, error)
}

// Codes returns src as a CodeSource: src itself when it is one, otherwise an
// adapter whose NextCodes unpacks each Sequence src.Next returns into one
// reused buffer.
func Codes(src ReadSource) CodeSource {
	if cs, ok := src.(CodeSource); ok {
		return cs
	}
	return &unpackSource{ReadSource: src}
}

// unpackSource is Codes' adapter for sources that only build Sequences.
type unpackSource struct {
	ReadSource
	codes []byte
}

func (s *unpackSource) NextCodes() ([]byte, error) {
	r, err := s.Next()
	if err != nil {
		return nil, err
	}
	s.codes = r.AppendCodes(s.codes[:0])
	return s.codes, nil
}

// SliceSource adapts an in-memory read slice to ReadSource — the
// compatibility wrapper for every caller that already holds []*Sequence.
// It aliases the slice (no copying) and is resettable, so retried jobs
// replay it from the start.
type SliceSource struct {
	reads []*Sequence
	next  int
}

// NewSliceSource wraps reads (which may be empty or nil).
func NewSliceSource(reads []*Sequence) *SliceSource {
	return &SliceSource{reads: reads}
}

// Next implements ReadSource.
func (s *SliceSource) Next() (*Sequence, error) {
	if s.next >= len(s.reads) {
		return nil, io.EOF
	}
	r := s.reads[s.next]
	s.next++
	return r, nil
}

// Reset rewinds to the first read.
func (s *SliceSource) Reset() error {
	s.next = 0
	return nil
}

// ScannerSource adapts a streaming Scanner to ReadSource, discarding record
// names: the bounded-memory ingestion path feeding the engine layer
// directly. It is a CodeSource: NextCodes lends each record's bases as the
// 2-bit codes the scanner translated them into, in the scanner's buffer,
// until the next call; Next packs the same codes into a new Sequence. Either
// way no name is kept. It is not resettable (the underlying reader cannot
// rewind); wrap a file in a FileSource when retries must replay.
type ScannerSource struct {
	sc  *Scanner
	err error
}

// NewScannerSource wraps an existing Scanner mid-stream; records already
// consumed are not replayed.
func NewScannerSource(sc *Scanner) *ScannerSource {
	return &ScannerSource{sc: sc}
}

// Next implements ReadSource.
func (s *ScannerSource) Next() (*Sequence, error) {
	codes, err := s.NextCodes()
	if err != nil {
		return nil, err
	}
	return packCodes(codes), nil
}

// NextCodes implements CodeSource.
func (s *ScannerSource) NextCodes() ([]byte, error) {
	if s.err != nil {
		return nil, s.err
	}
	if s.sc.scan() {
		return s.sc.codes, nil
	}
	if err := s.sc.Err(); err != nil {
		s.err = err
		return nil, err
	}
	s.err = io.EOF
	return nil, io.EOF
}

// FileSource streams reads from a FASTA/FASTQ file (format by extension,
// as DetectFormat). It closes itself at EOF or on the first scan error, so
// a fully drained source leaks no descriptor even if the consumer never
// calls Close. It is resettable: after Reset it scans from the top again,
// which is how spill-backed shard jobs survive queue retries.
type FileSource struct {
	path   string
	format Format
	f      *os.File
	src    *ScannerSource
	err    error
}

// OpenFileSource opens path for streaming, eagerly: a bad path fails here,
// not mid-assembly.
func OpenFileSource(path string) (*FileSource, error) {
	fs := NewFileSource(path)
	if err := fs.open(); err != nil {
		return nil, err
	}
	return fs, nil
}

// NewFileSource names path as a source without touching it: the file opens
// at the first Next (a bad path fails there), so a holder that only passes
// the source along — to a process that opens Path itself — costs no
// descriptor.
func NewFileSource(path string) *FileSource {
	return &FileSource{path: path, format: DetectFormat(path)}
}

// Path returns the file the source reads.
func (s *FileSource) Path() string { return s.path }

func (s *FileSource) open() error {
	f, err := os.Open(s.path)
	if err != nil {
		return fmt.Errorf("genome: open read source: %w", err)
	}
	s.f = f
	s.src = NewScannerSource(NewScanner(f, s.format))
	return nil
}

// Next implements ReadSource.
func (s *FileSource) Next() (*Sequence, error) {
	codes, err := s.NextCodes()
	if err != nil {
		return nil, err
	}
	return packCodes(codes), nil
}

// NextCodes implements CodeSource: the codes are borrowed until the next
// call, as ScannerSource's are.
func (s *FileSource) NextCodes() ([]byte, error) {
	if s.err == nil && s.src == nil {
		s.err = s.open()
	}
	if s.err != nil {
		return nil, s.err
	}
	codes, err := s.src.NextCodes()
	if err != nil {
		s.err = err
		s.Close()
		return nil, err
	}
	return codes, nil
}

// Close releases the file. It is idempotent; Next after Close returns
// io.EOF if the stream had drained (or never started), the sticky error
// otherwise.
func (s *FileSource) Close() error {
	if s.err == nil {
		s.err = io.EOF
	}
	if s.f == nil {
		return nil
	}
	f := s.f
	s.f = nil
	return f.Close()
}

// Reset rewinds to the first record: the file reopens at the next Next.
func (s *FileSource) Reset() error {
	s.Close()
	s.src, s.err = nil, nil
	return nil
}

// ReadAll drains src into a slice — the bridge for consumers that still
// need random access (the functional PIM engine's sub-array loader). A nil
// src yields a nil slice.
func ReadAll(src ReadSource) ([]*Sequence, error) {
	if src == nil {
		return nil, nil
	}
	var reads []*Sequence
	for {
		r, err := src.Next()
		if err == io.EOF {
			return reads, nil
		}
		if err != nil {
			return nil, err
		}
		reads = append(reads, r)
	}
}
