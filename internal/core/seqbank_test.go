package core

import (
	"testing"

	"pimassembler/internal/dram"
	"pimassembler/internal/genome"
	"pimassembler/internal/stats"
)

func TestSequenceBankRoundTrip(t *testing.T) {
	p := NewDefaultPlatform()
	bank := NewSequenceBank(p, 0, 2)
	rng := stats.NewRNG(1)
	reads := genome.NewReadSampler(genome.GenerateGenome(2000, rng), 101, 0, rng).Sample(30)
	for i, r := range reads {
		h, err := bank.Store(r)
		if err != nil {
			t.Fatal(err)
		}
		if h != i {
			t.Fatalf("handle %d, want %d", h, i)
		}
	}
	for i, r := range reads {
		if !bank.Fetch(i).Equal(r) {
			t.Fatalf("read %d corrupted through the bank", i)
		}
	}
	if len(bank.reads) != len(reads) {
		t.Fatalf("bank holds %d reads", len(bank.reads))
	}
}

func TestSequenceBankPacksDensely(t *testing.T) {
	p := NewDefaultPlatform()
	bank := NewSequenceBank(p, 0, 1)
	if bank.BasesPerRow() != 128 {
		t.Fatalf("bases per row %d, Fig. 6 stores up to 128 bp", bank.BasesPerRow())
	}
	// A 101 bp read needs exactly one row; a 129 bp read needs two.
	if _, err := bank.Store(genome.GenerateGenome(101, stats.NewRNG(2))); err != nil {
		t.Fatal(err)
	}
	m := p.Summarize().Histogram.Totals[dram.CmdWrite]
	if m != 1 {
		t.Fatalf("101 bp read used %d row writes, want 1", m)
	}
	if _, err := bank.Store(genome.GenerateGenome(129, stats.NewRNG(3))); err != nil {
		t.Fatal(err)
	}
	if got := p.Summarize().Histogram.Totals[dram.CmdWrite] - m; got != 2 {
		t.Fatalf("129 bp read used %d row writes, want 2", got)
	}
}

func TestSequenceBankCapacity(t *testing.T) {
	p := NewDefaultPlatform()
	bank := NewSequenceBank(p, 0, 1)
	// One sub-array holds 1016 data rows of 128 bp reads.
	rng := stats.NewRNG(4)
	stored := 0
	for {
		_, err := bank.Store(genome.GenerateGenome(128, rng))
		if err != nil {
			break
		}
		stored++
	}
	if stored != p.Geometry().DataRows() {
		t.Fatalf("stored %d single-row reads, want %d", stored, p.Geometry().DataRows())
	}
}

func TestSequenceBankRejects(t *testing.T) {
	p := NewDefaultPlatform()
	bank := NewSequenceBank(p, 0, 1)
	if _, err := bank.Store(genome.NewSequence(0)); err == nil {
		t.Fatal("empty read accepted")
	}
	huge := genome.GenerateGenome(1017*128, stats.NewRNG(5))
	if _, err := bank.Store(huge); err == nil {
		t.Fatal("oversized read accepted")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("bad handle accepted")
		}
	}()
	bank.Fetch(0)
}

func TestSequenceBankEach(t *testing.T) {
	p := NewDefaultPlatform()
	bank := NewSequenceBank(p, 3, 2)
	rng := stats.NewRNG(6)
	reads := genome.NewReadSampler(genome.GenerateGenome(1000, rng), 60, 0, rng).Sample(10)
	if err := bank.StoreAll(reads); err != nil {
		t.Fatal(err)
	}
	n := 0
	bank.Each(func(h int, r *genome.Sequence) bool {
		if !r.Equal(reads[h]) {
			t.Fatalf("read %d mismatch", h)
		}
		n++
		return true
	})
	if n != 10 {
		t.Fatalf("visited %d reads", n)
	}

	// Returning false stops the stream immediately.
	stopped := 0
	bank.Each(func(h int, r *genome.Sequence) bool {
		stopped++
		return stopped < 3
	})
	if stopped != 3 {
		t.Fatalf("early stop visited %d reads, want 3", stopped)
	}
}

func TestSequenceBankPanicsOnBadRange(t *testing.T) {
	p := NewDefaultPlatform()
	for _, f := range []func(){
		func() { NewSequenceBank(p, 0, 0) },
		func() { NewSequenceBank(p, -1, 2) },
		func() { NewSequenceBank(p, p.Geometry().TotalSubarrays(), 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}
