package genome

import (
	"io"
)

// Record is one named sequence from a FASTA or FASTQ stream.
type Record struct {
	Name string
	Seq  *Sequence
}

// ReadFASTA parses all records from a FASTA stream — a slurping wrapper over
// the streaming Scanner; prefer ScanRecords for inputs that should not be
// held in memory at once. Bases other than A/C/G/T (e.g. N) are rejected:
// the assembler's 2-bit pipeline has no ambiguity code, matching the paper's
// preprocessing, which samples reads from the non-ambiguous portion of
// chromosome 14.
func ReadFASTA(r io.Reader) ([]Record, error) {
	return readAll(r, FormatFASTA)
}

// readAll slurps every record of the stream in format.
func readAll(r io.Reader, format Format) ([]Record, error) {
	var records []Record
	err := ScanRecords(r, format, func(rec Record) error {
		records = append(records, rec)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return records, nil
}

// WriteFASTA writes records in FASTA format with 70-column wrapping.
func WriteFASTA(w io.Writer, records []Record) error {
	rw := NewRecordWriter(w)
	for _, rec := range records {
		if err := rw.Write(rec); err != nil {
			return err
		}
	}
	return rw.Flush()
}
