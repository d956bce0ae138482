package kmer

import (
	"reflect"
	"testing"

	"pimassembler/internal/genome"
)

// FuzzPartitionedVsSerial is the differential target for the parallel
// counting layer: arbitrary bytes become a read set, and the partitioned
// counter (fuzzed partition and worker counts) must agree with the serial
// CountTable on length, entries order, spectrum, and trimmed entries.
func FuzzPartitionedVsSerial(f *testing.F) {
	f.Add([]byte("CGTGCGTGCTT"), uint8(5), uint8(4), uint8(2))
	f.Add([]byte{}, uint8(2), uint8(1), uint8(1))
	f.Add([]byte{0, 1, 2, 3, 0, 1, 2, 3, 255, 254, 9, 9, 9}, uint8(3), uint8(64), uint8(8))
	f.Add([]byte("AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA"), uint8(8), uint8(16), uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, kRaw, partsRaw, workersRaw uint8) {
		k := 2 + int(kRaw)%7 // 2..8, the property-test sweep
		parts := 1 + int(partsRaw)%128
		workers := 1 + int(workersRaw)%8
		reads := fuzzReads(data, k)
		serial := CountReads(reads, k)
		pt := CountReadsPartitioned(reads, k, parts, workers)
		if pt.Len() != serial.Len() {
			t.Fatalf("Len %d, want %d", pt.Len(), serial.Len())
		}
		if !reflect.DeepEqual(pt.FilterMinCount(1), serial.Entries()) {
			t.Fatal("entries diverge from serial")
		}
		if !reflect.DeepEqual(pt.FilterMinCount(2), serial.FilterMinCount(2)) {
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
