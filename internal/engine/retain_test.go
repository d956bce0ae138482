package engine

import (
	"context"
	"runtime"
	"testing"

	"pimassembler/internal/assembly"
	"pimassembler/internal/genome"
	"pimassembler/internal/stats"
)

// TestReportDoesNotPinResult holds every Report of a series of runs and
// bounds the live heap per Report after a collection. Each run's k-mer table
// and graph take several megabytes; a Report that still pointed into the
// assembly.Result (as &res.Counts did) would keep all of it reachable, which
// is how a service retaining finished jobs leaked their working sets.
func TestReportDoesNotPinResult(t *testing.T) {
	rng := stats.NewRNG(0xE17)
	ref := genome.GenerateGenome(40_000, rng)
	reads := genome.NewReadSampler(ref, 101, 0, rng).Sample(4_000)
	opts := Options{Options: assembly.Options{K: 16}}

	const runs = 8
	const maxPerReport = 1 << 20 // contigs and counters are tens of kilobytes
	for _, name := range []string{"software", "pim-assembler"} {
		eng := mustLookup(t, name)
		before := liveHeap()
		reports := make([]*Report, runs)
		for i := range reports {
			rep, err := eng.Assemble(context.Background(), genome.NewSliceSource(reads), opts)
			if err != nil {
				t.Fatal(err)
			}
			reports[i] = rep
		}
		after := liveHeap()
		if grown := int64(after) - int64(before); grown > runs*maxPerReport {
			t.Errorf("%s: %d held reports keep %d bytes live (%d per report), want under %d per report",
				name, runs, grown, grown/runs, maxPerReport)
		}
		runtime.KeepAlive(reports)
	}
}

// liveHeap is the heap in use by reachable objects.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}
