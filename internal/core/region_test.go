package core

import (
	"reflect"
	"sync"
	"testing"

	"pimassembler/internal/exec"
	"pimassembler/internal/subarray"
)

// regionWork is a fixed command sequence whose length and mix depend on the
// sub-array, so no two sub-arrays' subsequences can be mistaken for each
// other.
func regionWork(s *subarray.Subarray, id int) {
	s.SetStage(exec.StageBulk)
	for i := 0; i <= id; i++ {
		s.Fill(0, i%2 == 0)
		s.RowClone(0, 1)
		if i%3 == 0 {
			s.MatchAllOnes(1)
		}
	}
}

// regionRun records one command outside the region on either side of it and
// drives sub-arrays [first, first+n) inside it from the given number of
// goroutines, each taking its sub-arrays in descending order — about as far
// from the merged order as a schedule can get.
func regionRun(first, n, workers int) *Platform {
	p := NewDefaultPlatform()
	p.Subarray(0).Fill(0, true)
	p.ParallelRegion(first, n, func() {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for id := first + n - 1 - w; id >= first; id -= workers {
					regionWork(p.Subarray(id), id)
				}
			}(w)
		}
		wg.Wait()
	})
	p.Subarray(first).Fill(0, true)
	return p
}

// TestParallelRegionMergesInSubarrayOrder is the contract that replaced the
// lock in exec.Stream: goroutines owning disjoint sub-arrays record
// privately, and what the platform holds afterwards is the sub-array-major
// concatenation — each sub-array's own subsequence intact, commands before
// and after the region in place — with the Summarize() a serial run would
// have, float sums included. Run under -race (make test-race).
func TestParallelRegionMergesInSubarrayOrder(t *testing.T) {
	const first, n = 3, 12

	// One goroutine driving the sub-arrays in ascending order outside any
	// region records the sub-array-major concatenation directly.
	serial := NewDefaultPlatform()
	serial.Subarray(0).Fill(0, true)
	for id := first; id < first+n; id++ {
		regionWork(serial.Subarray(id), id)
	}
	serial.Subarray(first).Fill(0, true)
	want, wantSum := serial.Stream().Commands(), serial.Summarize()

	for _, workers := range []int{1, 4, n} {
		p := regionRun(first, n, workers)
		if got := p.Stream().Commands(); !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: merged stream is not the sub-array-major concatenation", workers)
		}
		// Summarize sums in stream order, so the same stream gives the same
		// floats, whatever order the goroutines recorded in.
		if got := p.Summarize(); !reflect.DeepEqual(got, wantSum) {
			t.Fatalf("workers=%d: Summarize\n got %+v\nwant %+v", workers, got, wantSum)
		}
	}
}
