package bench

import (
	"bytes"
	"fmt"

	"pimassembler/internal/genome"
	"pimassembler/internal/stats"
)

// ReadLen is the paper's Illumina read length; every workload uses it.
const ReadLen = 101

// Input is one generated read set: the reference it was sampled from and
// the encoded bytes the program under test actually receives.
type Input struct {
	Ref    *genome.Sequence
	Reads  int
	Format genome.Format
	Data   []byte
}

// GenInput samples reads of ReadLen bases uniformly from a fresh uniform
// random genome and encodes them as FASTA or FASTQ text. The same
// (seed, sizes) always yields the same bytes.
func GenInput(seed uint64, genomeLen, reads int, errRate float64, format genome.Format) (*Input, error) {
	rng := stats.NewRNG(seed)
	ref := genome.GenerateGenome(genomeLen, rng)
	sampler := genome.NewReadSampler(ref, ReadLen, errRate, rng)
	var buf bytes.Buffer
	buf.Grow(reads * (2*ReadLen + 16)) // a FASTQ record: name, bases, "+", qualities
	switch format {
	case genome.FormatFASTA:
		w := genome.NewRecordWriter(&buf)
		for i := 0; i < reads; i++ {
			if err := w.Write(genome.Record{Name: fmt.Sprintf("r%d", i), Seq: sampler.Next()}); err != nil {
				return nil, err
			}
		}
		if err := w.Flush(); err != nil {
			return nil, err
		}
	case genome.FormatFASTQ:
		qual := bytes.Repeat([]byte{'I'}, ReadLen)
		for i := 0; i < reads; i++ {
			fmt.Fprintf(&buf, "@r%d\n%s\n+\n%s\n", i, sampler.Next().String(), qual)
		}
	default:
		return nil, fmt.Errorf("bench: unsupported input format %v", format)
	}
	return &Input{Ref: ref, Reads: reads, Format: format, Data: buf.Bytes()}, nil
}

// Source opens a fresh streaming read source over the encoded bytes — the
// same scanner path cmd/assemble and the service feed their engines from.
func (in *Input) Source() genome.ReadSource {
	return genome.NewScannerSource(genome.NewScanner(bytes.NewReader(in.Data), in.Format))
}
