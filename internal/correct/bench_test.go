package correct

import (
	"fmt"
	"testing"
)

// BenchmarkCorrectAll is the end-to-end benchmark's sw_noisy_k32 shape:
// 30 000 × 101 bp reads of a 100 kbp genome, 1 % substitutions, k = 32,
// threshold 3, four edits per read. build times FromReadsWorkers itself —
// counting the reads, keeping the solid entries and building their set.
// apply times CorrectAll alone, over a spectrum built once outside the
// timer; every iteration repairs a fresh copy of the reads.
func BenchmarkCorrectAll(b *testing.B) {
	_, _, reads := errReads(1, 100_000, 101, 30_000, 0.01)
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("build/workers%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				FromReadsWorkers(reads, 32, 3, 4, workers)
			}
		})
	}
	c := FromReadsWorkers(reads, 32, 3, 4, 1)
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("apply/workers%d", workers), func(b *testing.B) {
			c.workers = workers
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				copies := cloneReads(reads)
				b.StartTimer()
				if st := c.CorrectAll(copies); st.Edits == 0 {
					b.Fatal("nothing corrected")
				}
			}
		})
	}
}
