package kmer

import (
	"reflect"
	"testing"

	"pimassembler/internal/genome"
	"pimassembler/internal/stats"
)

// FuzzPartitionedVsSerial is the differential target for the bucketed
// counter: arbitrary bytes become reads, counted before and after bulk reads
// that may take the counter past its split, and the counter (fuzzed k and
// worker count) must agree with the serial CountTable on length, entries
// order and trimmed entries.
func FuzzPartitionedVsSerial(f *testing.F) {
	f.Add([]byte("CGTGCGTGCTT"), uint8(3), uint8(2), uint16(0))
	f.Add([]byte{}, uint8(0), uint8(1), uint16(0))
	f.Add([]byte{0, 1, 2, 3, 0, 1, 2, 3, 255, 254, 9, 9, 9}, uint8(14), uint8(8), uint16(600))
	f.Add([]byte("AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA"), uint8(30), uint8(3), uint16(1000))
	// k = 20 and k = 21: the last 4-byte code width and the first 8-byte one.
	f.Add([]byte("ACGTTGCAACGTGGCCTTAAGCGCATATCGATCGGCTA"), uint8(18), uint8(2), uint16(1000))
	f.Add([]byte("ACGTTGCAACGTGGCCTTAAGCGCATATCGATCGGCTA"), uint8(19), uint8(2), uint16(1000))
	rng := stats.NewRNG(11)
	sampled := genome.NewReadSampler(genome.GenerateGenome(40_000, rng), 101, 0, rng).Sample(1200)
	f.Fuzz(func(t *testing.T, data []byte, kRaw, workersRaw uint8, bulk uint16) {
		k := 2 + int(kRaw)%(MaxK-1)
		workers := 1 + int(workersRaw)%8
		fuzzed := fuzzReads(data, k)
		var reads []*genome.Sequence
		reads = append(reads, fuzzed...)
		reads = append(reads, sampled[:int(bulk)%len(sampled)]...)
		reads = append(reads, fuzzed...)
		serial := CountReads(reads, k)
		bt := CountReadsParallel(reads, k, workers)
		if bt.Len() != serial.Len() {
			t.Fatalf("Len %d, want %d", bt.Len(), serial.Len())
		}
		if !reflect.DeepEqual(bt.FilterMinCount(1), serial.Entries()) {
			t.Fatal("entries diverge from serial")
		}
		if !reflect.DeepEqual(bt.FilterMinCount(2), serial.FilterMinCount(2)) {
			t.Fatal("FilterMinCount diverges from serial")
		}
	})
}

// fuzzReads decodes bytes into a read set: read lengths cycle through a
// fixed schedule around k (below, at, and well above), bases are the low
// two bits of successive bytes.
func fuzzReads(data []byte, k int) []*genome.Sequence {
	lengths := []int{k - 1, k, 2*k + 3, 37, 1}
	var reads []*genome.Sequence
	pos, li := 0, 0
	for pos < len(data) {
		n := lengths[li%len(lengths)]
		li++
		if n > len(data)-pos {
			n = len(data) - pos
		}
		if n <= 0 {
			break
		}
		s := genome.NewSequence(n)
		for i := 0; i < n; i++ {
			s.SetBase(i, genome.Base(data[pos+i]&3))
		}
		reads = append(reads, s)
		pos += n
	}
	return reads
}

// FuzzAddCodesMatchesAddRead is the differential target for the code-fed
// counting loop. Arbitrary bytes become reads, around bulk reads that may
// take the bucketed counter past its split. A BucketTable and a CountTable
// are fed each read's bases as 2-bit codes (AddCodes), at k = 3, 16, 20, 21
// and 32 (both code widths and both sides of the width boundary); the
// oracle adds each read — the AddRead of the name — k-mer by k-mer from the
// base-by-base roll over the read's Sequence (rollBases), which shares no
// code with codeRoller, and a second BucketTable takes those k-mers through
// AddKmers. All four must agree on entries, trimmed entries and Len, and
// the CountTable with the oracle on ProbeOps.
func FuzzAddCodesMatchesAddRead(f *testing.F) {
	f.Add([]byte("CGTGCGTGCTT"), uint8(0), uint16(0))
	f.Add([]byte{}, uint8(1), uint16(0))
	f.Add([]byte{0, 1, 2, 3, 0, 1, 2, 3, 255, 254, 9, 9, 9}, uint8(1), uint16(600))
	f.Add([]byte("ACGTTGCAACGTGGCCTTAAGCGCATATCGATCGGCTA"), uint8(2), uint16(1000))
	f.Add([]byte("ACGTTGCAACGTGGCCTTAAGCGCATATCGATCGGCTA"), uint8(3), uint16(1000))
	f.Add([]byte("AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA"), uint8(4), uint16(900))
	rng := stats.NewRNG(7)
	sampled := genome.NewReadSampler(genome.GenerateGenome(40_000, rng), 101, 0, rng).Sample(1200)
	f.Fuzz(func(t *testing.T, data []byte, kSel uint8, bulk uint16) {
		k := []int{3, 16, 20, 21, 32}[int(kSel)%5]
		fuzzed := fuzzReads(data, k)
		var reads []*genome.Sequence
		reads = append(reads, fuzzed...)
		reads = append(reads, sampled[:int(bulk)%len(sampled)]...)
		reads = append(reads, fuzzed...)
		byCodes, byKmers, serial, oracle := NewBucketTable(k, 1), NewBucketTable(k, 1), NewCountTable(k, 0), NewCountTable(k, 0)
		var codes []byte
		for _, r := range reads {
			codes = codes[:0]
			for i := 0; i < r.Len(); i++ {
				codes = append(codes, byte(r.Base(i)))
			}
			byCodes.AddCodes(codes)
			serial.AddCodes(codes)
			if kms := rollBases(r, k); len(kms) > 0 {
				oracle.addAll(kms)
				byKmers.AddKmers(kms)
			}
		}
		if byCodes.Len() != oracle.Len() || byKmers.Len() != oracle.Len() || serial.Len() != oracle.Len() {
			t.Fatalf("k=%d: Len %d bucketed, %d by k-mers, %d serial, %d oracle", k, byCodes.Len(), byKmers.Len(), serial.Len(), oracle.Len())
		}
		if serial.ProbeOps() != oracle.ProbeOps() {
			t.Fatalf("k=%d: ProbeOps %d serial, %d oracle", k, serial.ProbeOps(), oracle.ProbeOps())
		}
		for _, min := range []uint32{1, 2} {
			want := oracle.FilterMinCount(min)
			if !reflect.DeepEqual(byCodes.FilterMinCount(min), want) || !reflect.DeepEqual(byKmers.FilterMinCount(min), want) ||
				!reflect.DeepEqual(serial.FilterMinCount(min), want) {
				t.Fatalf("k=%d: FilterMinCount(%d) diverges", k, min)
			}
		}
	})
}
