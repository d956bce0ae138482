package assembly

import (
	"reflect"
	"testing"

	"pimassembler/internal/genome"
	"pimassembler/internal/stats"
)

// TestStreamStage1MatchesSlice pins that counting from a slice and counting
// read by read from a source are one function: not only contigs but the
// table's probe count and every OpCounts field — AvgProbes included — agree.
func TestStreamStage1MatchesSlice(t *testing.T) {
	rng := stats.NewRNG(0x51)
	reads := genome.NewReadSampler(genome.GenerateGenome(30_000, rng), 101, 0.005, rng).Sample(3_000)
	for _, k := range []int{8, 16, 32} {
		opts := Options{K: k, MinCount: 2, Simplify: true}
		want, err := Assemble(reads, opts)
		if err != nil {
			t.Fatal(err)
		}
		opts.StreamStage1 = true
		got, err := AssembleSource(genome.NewSliceSource(reads), opts)
		if err != nil {
			t.Fatal(err)
		}
		if got.Table.ProbeOps() != want.Table.ProbeOps() {
			t.Errorf("k=%d: streamed ProbeOps %d, slice %d", k, got.Table.ProbeOps(), want.Table.ProbeOps())
		}
		if got.Counts != want.Counts {
			t.Errorf("k=%d: op counts differ:\n got %+v\nwant %+v", k, got.Counts, want.Counts)
		}
		if !reflect.DeepEqual(got.Table.Entries(), want.Table.Entries()) {
			t.Errorf("k=%d: table entries differ", k)
		}
		if len(got.Contigs) != len(want.Contigs) {
			t.Fatalf("k=%d: %d contigs streamed, %d from the slice", k, len(got.Contigs), len(want.Contigs))
		}
		for i := range want.Contigs {
			if !got.Contigs[i].Seq.Equal(want.Contigs[i].Seq) {
				t.Fatalf("k=%d: contig %d differs", k, i)
			}
		}
	}
}
