package assembly

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"reflect"
	"testing"

	"pimassembler/internal/core"
	"pimassembler/internal/correct"
	"pimassembler/internal/genome"
	"pimassembler/internal/stats"
)

// scannerSource serialises reads as FASTA and returns a one-pass,
// non-resettable source over the text — what a file or network stream looks
// like to the pipeline.
func scannerSource(t *testing.T, reads []*genome.Sequence) genome.ReadSource {
	t.Helper()
	var buf bytes.Buffer
	w := genome.NewRecordWriter(&buf)
	for i, r := range reads {
		if err := w.Write(genome.Record{Name: fmt.Sprintf("r%d", i), Seq: r}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return genome.NewScannerSource(genome.NewScanner(&buf, genome.FormatFASTA))
}

func assertSameResult(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if got.Counts != want.Counts {
		t.Errorf("%s: op counts differ:\n got %+v\nwant %+v", label, got.Counts, want.Counts)
	}
	if len(got.Contigs) != len(want.Contigs) {
		t.Fatalf("%s: %d contigs, want %d", label, len(got.Contigs), len(want.Contigs))
	}
	for i := range want.Contigs {
		if !got.Contigs[i].Seq.Equal(want.Contigs[i].Seq) {
			t.Fatalf("%s: contig %d differs", label, i)
		}
	}
}

// TestStreamStage1MatchesSlice pins that a slice and a one-pass scanner
// stream are one pipeline: not only contigs but the whole stage-1 hand-off
// (entries, distinct, probes, totals) and every OpCounts field — AvgProbes
// included — agree, with no option set to ask for streaming.
func TestStreamStage1MatchesSlice(t *testing.T) {
	rng := stats.NewRNG(0x51)
	reads := genome.NewReadSampler(genome.GenerateGenome(30_000, rng), 101, 0.005, rng).Sample(3_000)
	for _, k := range []int{8, 16, 32} {
		opts := Options{K: k, MinCount: 2, Simplify: true}
		want, err := Assemble(reads, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := AssembleSource(context.Background(), scannerSource(t, reads), opts)
		if err != nil {
			t.Fatal(err)
		}
		assertSameResult(t, fmt.Sprintf("k=%d", k), got, want)

		wantSp, err := softwareBackend{}.count(genome.NewSliceSource(reads), opts)
		if err != nil {
			t.Fatal(err)
		}
		gotSp, err := softwareBackend{}.count(scannerSource(t, reads), opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotSp, wantSp) {
			t.Errorf("k=%d: stage-1 hand-off differs between stream and slice", k)
		}
	}
}

// TestWholeReadSetStages pins which configurations need the whole read set.
// From a one-pass stream, Correct still builds its spectrum over every read
// before fixing the first, checked against the stage run by hand on the
// slice. CountWorkers > 1 does not: it pulls reads one at a time like the
// serial count, hands on the same spectrum, and stops at a cancel.
func TestWholeReadSetStages(t *testing.T) {
	rng := stats.NewRNG(0x52)
	reads := genome.NewReadSampler(genome.GenerateGenome(8_000, rng), 80, 0.01, rng).Sample(2_000)
	const k = 16

	t.Run("correct", func(t *testing.T) {
		copies := make([]*genome.Sequence, len(reads))
		for i, r := range reads {
			copies[i] = r.Subsequence(0, r.Len())
		}
		if st := correct.FromReadsWorkers(copies, k, 3, 4, 1).CorrectAll(copies); st.Edits == 0 {
			t.Fatal("fixture has nothing to correct")
		}
		want, err := Assemble(copies, Options{K: k})
		if err != nil {
			t.Fatal(err)
		}
		got, err := AssembleSource(context.Background(), scannerSource(t, reads), Options{K: k, Correct: true})
		if err != nil {
			t.Fatal(err)
		}
		assertSameResult(t, "correct", got, want)
	})

	t.Run("count-workers", func(t *testing.T) {
		sp, err := softwareBackend{}.count(scannerSource(t, reads), Options{K: k, CountWorkers: 4})
		if err != nil {
			t.Fatal(err)
		}
		want, err := softwareBackend{}.count(genome.NewSliceSource(reads), Options{K: k})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(sp, want) {
			t.Error("stage-1 hand-off on 4 workers differs from the one-worker count")
		}

		const cancelAt = 300
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		src := &cancelAfter{ReadSource: scannerSource(t, reads), n: cancelAt, cancel: cancel}
		res, err := AssembleSource(ctx, src, Options{K: k, CountWorkers: 4})
		if !errors.Is(err, context.Canceled) || res != nil {
			t.Fatalf("result %v, error %v; want context.Canceled", res, err)
		}
		if src.pulled != cancelAt {
			t.Errorf("pulled %d reads, want the %d before the cancel: CountWorkers > 1 must not drain the source", src.pulled, cancelAt)
		}
	})
}

// cancelAfter cancels a context once it has handed out n reads and counts
// every read pulled from it.
type cancelAfter struct {
	genome.ReadSource
	n, pulled int
	cancel    context.CancelFunc
}

func (s *cancelAfter) NextCodes() ([]byte, error) {
	r, err := s.ReadSource.NextCodes()
	if err == nil {
		if s.pulled++; s.pulled == s.n {
			s.cancel()
		}
	}
	return r, err
}

// cancelAtEOF cancels a context as it reports the end of its reads: stage 1
// has every read by then, so only a stage boundary can notice.
type cancelAtEOF struct {
	genome.ReadSource
	cancel context.CancelFunc
}

func (s cancelAtEOF) NextCodes() ([]byte, error) {
	r, err := s.ReadSource.NextCodes()
	if err == io.EOF {
		s.cancel()
	}
	return r, err
}

// TestRunChecksContextBetweenStages pins the stage-boundary half of
// cancellation on both backends: a context cancelled after the last read was
// pulled still ends the run with its error, before any contig is emitted.
func TestRunChecksContextBetweenStages(t *testing.T) {
	rng := stats.NewRNG(0x53)
	reads := genome.NewReadSampler(genome.GenerateGenome(1_000, rng), 80, 0, rng).Sample(60)
	for name, b := range map[string]backend{
		"software": softwareBackend{},
		"pim":      &pimBackend{platform: core.NewDefaultPlatform(), hashN: 8},
	} {
		ctx, cancel := context.WithCancel(context.Background())
		res, err := run(ctx, b, cancelAtEOF{genome.NewSliceSource(reads), cancel}, Options{K: 15})
		if !errors.Is(err, context.Canceled) || res != nil {
			t.Errorf("%s: result %v, error %v; want context.Canceled", name, res, err)
		}
	}
}
