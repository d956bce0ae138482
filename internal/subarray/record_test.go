package subarray

import (
	"testing"

	"pimassembler/internal/dram"
	"pimassembler/internal/exec"
)

// recordedSubarray is a sub-array attached the way core.Platform attaches
// one: a meter and a command stream, both fed by every command.
func recordedSubarray() (*Subarray, *exec.Stream) {
	s, stream := newTestSubarray(), exec.NewStream()
	s.AttachRecorder(stream, 7)
	s.SetStage(exec.StageHashmap)
	return s, stream
}

// TestRecordedCommandsAllocateOnlyChunks is the per-command budget's
// allocation half: 10 000 recorded commands may allocate stream chunks (8192
// records each, and the slice that lists them) and nothing per command.
func TestRecordedCommandsAllocateOnlyChunks(t *testing.T) {
	const n = 10_000
	s, stream := recordedSubarray()
	allocs := testing.AllocsPerRun(3, func() {
		for i := 0; i < n; i++ {
			s.RowClone(0, 1)
		}
	})
	if allocs > 4 {
		t.Fatalf("%d recorded commands made %.0f allocations, want at most 4 (stream chunks)", n, allocs)
	}
	if want := 4 * n; stream.Len() != want || s.Meter().Counts[dram.CmdAAPCopy] != int64(want) {
		t.Fatalf("stream holds %d commands, meter %d, want %d", stream.Len(), s.Meter().Counts[dram.CmdAAPCopy], want)
	}
}

// BenchmarkRecordedCommand times one simulated command end to end — the row
// copy plus its accounting on the meter and the stream — the unit every
// functional run is made of. make bench runs it once.
func BenchmarkRecordedCommand(b *testing.B) {
	s, stream := recordedSubarray()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i&(1<<20-1) == 0 {
			stream.Reset() // bound the log: the chunks are reused
		}
		s.RowClone(0, 1)
	}
}
