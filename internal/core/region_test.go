package core

import (
	"math"
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
// locks in dram.Meter and exec.Stream: goroutines owning disjoint sub-arrays
// record privately, and what the platform holds afterwards is the
// sub-array-major concatenation — each sub-array's own subsequence intact,
// commands before and after the region in place — with the meter a serial
// run would have. Run under -race (make test-race).
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
	want := serial.Stream().Commands()

	var prev *Platform
	for _, workers := range []int{1, 4, n} {
		p := regionRun(first, n, workers)
		if got := p.Stream().Commands(); !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: merged stream is not the sub-array-major concatenation", workers)
		}
		sm, pm := serial.Meter(), p.Meter()
		if pm.Counts != sm.Counts || !near(pm.LatencyNS, sm.LatencyNS) || !near(pm.EnergyPJ, sm.EnergyPJ) {
			t.Fatalf("workers=%d: meter %v / %v ns / %v pJ, serial run %v / %v ns / %v pJ",
				workers, pm.Counts, pm.LatencyNS, pm.EnergyPJ, sm.Counts, sm.LatencyNS, sm.EnergyPJ)
		}
		// Against the serial run the float sums may round differently (the
		// merge adds per-sub-array subtotals); between region runs nothing
		// may differ, floats and schedules included.
		if prev != nil {
			if *pm != *prev.Meter() {
				t.Fatalf("workers=%d: meter differs from the previous worker count's", workers)
			}
			if !reflect.DeepEqual(p.Summarize(), prev.Summarize()) {
				t.Fatalf("workers=%d: Summarize differs from the previous worker count's", workers)
			}
		}
		prev = p
	}
}

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Abs(b) }
