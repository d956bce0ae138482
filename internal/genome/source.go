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
// NextCodes returns the next read's bases as 2-bit codes (Fig. 7), one byte
// (0-3) per base, or io.EOF (verbatim, never wrapped) after the last read.
// Any other error is a real failure; after it, further calls return the same
// error. The codes are borrowed: they sit in a buffer the source reuses,
// valid only until the next call, so a caller that keeps a read copies it —
// ReadAll packs each into a fresh Sequence. A nil ReadSource is a valid
// empty workload for consumers that accept one (e.g. counts-only analytical
// engine runs).
//
// Sources that can rewind additionally implement
//
//	interface{ Reset() error }
//
// which the job queue requires before re-running a retry attempt.
type ReadSource interface {
	NextCodes() ([]byte, error)
}

// SliceSource adapts an in-memory read slice to ReadSource — the
// compatibility wrapper for every caller that already holds []*Sequence.
// It holds the slice without copying it, unpacks each read into one reused
// code buffer as NextCodes reaches it, and is resettable, so retried jobs
// replay it from the start.
type SliceSource struct {
	reads []*Sequence
	next  int
	codes []byte
}

// NewSliceSource wraps reads (which may be empty or nil).
func NewSliceSource(reads []*Sequence) *SliceSource {
	return &SliceSource{reads: reads}
}

// NextCodes implements ReadSource.
func (s *SliceSource) NextCodes() ([]byte, error) {
	if s.next >= len(s.reads) {
		return nil, io.EOF
	}
	s.codes = s.reads[s.next].AppendCodes(s.codes[:0])
	s.next++
	return s.codes, nil
}

// Reset rewinds to the first read.
func (s *SliceSource) Reset() error {
	s.next = 0
	return nil
}

// ScannerSource adapts a streaming Scanner to ReadSource, discarding record
// names: the bounded-memory ingestion path feeding the engine layer
// directly. NextCodes lends each record's bases as the 2-bit codes the
// scanner translated them into, in the scanner's buffer, until the next
// call; no Sequence and no name is built. It is not resettable (the
// underlying reader cannot rewind); wrap a file in a FileSource when retries
// must replay.
type ScannerSource struct {
	sc  *Scanner
	err error
}

// NewScannerSource wraps an existing Scanner mid-stream; records already
// consumed are not replayed.
func NewScannerSource(sc *Scanner) *ScannerSource {
	return &ScannerSource{sc: sc}
}

// NextCodes implements ReadSource.
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
// at the first NextCodes (a bad path fails there), so a holder that only
// passes the source along — to a process that opens Path itself — costs no
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

// NextCodes implements ReadSource: the codes are borrowed until the next
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

// Close releases the file. It is idempotent; NextCodes after Close returns
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

// Reset rewinds to the first record: the file reopens at the next
// NextCodes.
func (s *FileSource) Reset() error {
	s.Close()
	s.src, s.err = nil, nil
	return nil
}

// ReadAll drains src into a slice — the bridge for consumers that need
// every read at once (the functional PIM engine's sub-array loader, read
// correction) and the only place a stream becomes Sequences. Each read is
// packed into a fresh Sequence the caller owns: nothing in the slice aliases
// src or what src was built from. A nil src yields a nil slice.
func ReadAll(src ReadSource) ([]*Sequence, error) {
	if src == nil {
		return nil, nil
	}
	var reads []*Sequence
	for {
		codes, err := src.NextCodes()
		if err == io.EOF {
			return reads, nil
		}
		if err != nil {
			return nil, err
		}
		reads = append(reads, packCodes(codes))
	}
}
