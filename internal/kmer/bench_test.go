package kmer

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"testing"

	"pimassembler/internal/genome"
	"pimassembler/internal/stats"
)

func BenchmarkIterate(b *testing.B) {
	rng := stats.NewRNG(1)
	s := genome.GenerateGenome(10_000, rng)
	b.SetBytes(int64(s.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		Iterate(s, 16, func(Kmer) { n++ })
		if n != s.Len()-15 {
			b.Fatal("wrong k-mer count")
		}
	}
}

func BenchmarkCountTableAdd(b *testing.B) {
	rng := stats.NewRNG(2)
	kms := make([]Kmer, 1<<14)
	for i := range kms {
		kms[i] = Kmer(rng.Uint64()) & Kmer(Mask(16))
	}
	tbl := NewCountTable(16, len(kms))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl.Add(kms[i%len(kms)])
	}
}

func BenchmarkHash(b *testing.B) {
	var acc uint64
	for i := 0; i < b.N; i++ {
		acc ^= Kmer(i).Hash()
	}
	if acc == 1 {
		b.Fatal("unlikely")
	}
}

func BenchmarkCountReads(b *testing.B) {
	rng := stats.NewRNG(3)
	g := genome.GenerateGenome(20_000, rng)
	reads := genome.NewReadSampler(g, 101, 0, rng).Sample(500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CountReads(reads, 16)
	}
}

// BenchmarkSolidLookup is the corrector's lookup at the sw_noisy_k32 shape:
// every 32-mer of 30 000 × 101 bp reads of a 100 kbp genome with 1 %
// errors, asked whether it was counted at least 3 times — of the Set over
// the solid entries the corrector holds, a read's worth per call, which
// answers with the k-mer's index among its keys, and of the
// CountTable of every counted k-mer it held before, one Count per k-mer.
func BenchmarkSolidLookup(b *testing.B) {
	const k, threshold = 32, 3
	rng := stats.NewRNG(4)
	g := genome.GenerateGenome(100_000, rng)
	reads := genome.NewReadSampler(g, 101, 0.01, rng).Sample(30_000)
	tbl := CountReads(reads, k)
	set := NewSet(k, tbl.FilterMinCount(threshold))
	var kms []Kmer
	var codes []byte
	for _, r := range reads {
		codes = r.AppendCodes(codes[:0])
		kms = AppendKmers(kms, codes, k)
	}
	idx := make([]int32, len(kms))
	solid := make([]bool, len(kms))
	const perRead = 101 - k + 1
	b.Run("set", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for at := 0; at < len(kms); at += perRead {
				set.IndexAll(kms[at:at+perRead], idx[at:])
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(kms)), "ns/lookup")
	})
	b.Run("table", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j, km := range kms {
				solid[j] = tbl.Count(km) >= threshold
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(kms)), "ns/lookup")
	})
}

// BenchmarkSpectrum is stage 1 alone, from reads to the sorted entries graph
// construction takes: the serial table (CountReads + FilterMinCount) against
// the bucketed counter the pipeline runs. k16 is the sw_100k shape — 100 000
// × 101 bp error-free reads of a 1 Mbp genome — where the buckets hold 4-byte
// codes; k32 is the sw_noisy_k32 shape — 30 000 × 101 bp reads of a 100 kbp
// genome with 1 % errors — where they hold 8-byte ones.
func BenchmarkSpectrum(b *testing.B) {
	shapes := []struct {
		name                string
		k, genomeLen, reads int
		errRate             float64
	}{
		{"k16", 16, 1_000_000, 100_000, 0},
		{"k32", 32, 100_000, 30_000, 0.01},
	}
	for _, sh := range shapes {
		rng := stats.NewRNG(5)
		g := genome.GenerateGenome(sh.genomeLen, rng)
		reads := genome.NewReadSampler(g, 101, sh.errRate, rng).Sample(sh.reads)
		b.Run(sh.name+"/serial", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				CountReads(reads, sh.k).FilterMinCount(1)
			}
		})
		b.Run(sh.name+"/bucketed", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				t := NewBucketTable(sh.k, 1)
				var codes []byte
				for _, r := range reads {
					codes = r.AppendCodes(codes[:0])
					t.AddCodes(codes)
				}
				t.FilterMinCount(1)
			}
		})
	}
}

// BenchmarkIngest is stage 1's ingest alone at the sw_100k read shape: FASTA
// bytes of 20 000 × 101 bp error-free reads of a 1 Mbp genome into a k = 16
// BucketTable, past its split but short of a fold round, so what it times is
// parsing, rolling and staging: the pipeline's path, NextCodes into AddCodes
// with no Sequence per read.
func BenchmarkIngest(b *testing.B) {
	const reads = 20_000
	rng := stats.NewRNG(1)
	sampler := genome.NewReadSampler(genome.GenerateGenome(1_000_000, rng), 101, 0, rng)
	var fasta bytes.Buffer
	w := genome.NewRecordWriter(&fasta)
	for i := 0; i < reads; i++ {
		if err := w.Write(genome.Record{Name: fmt.Sprintf("r%d", i), Seq: sampler.Next()}); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(fasta.Len()))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < b.N; i++ {
		src := genome.NewScannerSource(genome.NewScanner(bytes.NewReader(fasta.Bytes()), genome.FormatFASTA))
		t := NewBucketTable(16, 1)
		n := 0
		for ; ; n++ {
			codes, err := src.NextCodes()
			if err == io.EOF {
				break
			} else if err != nil {
				b.Fatal(err)
			}
			t.AddCodes(codes)
		}
		if n != reads {
			b.Fatalf("%d reads, want %d", n, reads)
		}
	}
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*reads), "ns/read")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N*reads), "allocs/read")
}
