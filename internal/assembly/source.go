package assembly

import (
	"fmt"
	"io"
	"time"

	"pimassembler/internal/genome"
	"pimassembler/internal/kmer"
)

// AssembleSource runs the software reference pipeline over a streaming
// read source. With Options.StreamStage1 set (and the serial, uncorrected
// configuration it requires), stage 1 counts k-mers one read at a time, so
// resident memory is bounded by the record in flight plus the k-mer table
// and graph — never the read set. Otherwise the source is drained and
// handed to Assemble.
//
// Both paths feed the same reads in the same order to the same
// grow-on-demand table (CountTable.AddRead), so contigs, entries, counts,
// spectra, and probe statistics are identical to Assemble over the same
// reads.
func AssembleSource(src genome.ReadSource, opts Options) (*Result, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if src == nil {
		return nil, fmt.Errorf("assembly: no reads")
	}
	if !opts.StreamStage1 || opts.Correct || opts.CountWorkers > 1 {
		reads, err := genome.ReadAll(src)
		if err != nil {
			return nil, err
		}
		return Assemble(reads, opts)
	}

	res := &Result{Options: opts}
	table := kmer.NewCountTable(opts.K, 0)
	var totals workloadTotals
	start := time.Now()
	for {
		r, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		totals.add(r, opts.K)
		table.AddRead(r)
	}
	if totals.reads == 0 {
		return nil, fmt.Errorf("assembly: no reads")
	}
	res.Table = table
	res.Timings.Hashmap = time.Since(start)

	finishStages(res, opts)
	res.Counts = measureCounts(totals, res)
	return res, nil
}
