package subarray

import (
	"runtime"
	"testing"

	"pimassembler/internal/exec"
)

// recordedSubarray is a sub-array attached to a command stream the way
// core.Platform attaches one. The stream then records every command; the
// meter it was built with must stay empty.
func recordedSubarray() (*Subarray, *exec.Stream) {
	s, stream := newTestSubarray(), exec.NewStream()
	s.AttachRecorder(stream, 7)
	s.SetStage(exec.StageHashmap)
	return s, stream
}

// recordCost records n commands, RowClones by sub-array of(i), into one
// fresh stream and returns the allocations and the bytes per command that
// took.
func recordCost(n int, of func(i int) *Subarray) (mallocs uint64, bytesPerCmd float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		of(i).RowClone(0, 1)
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

// TestRecordedCommandsAllocateOnlyChunks is the per-command budget's
// allocation half: recorded commands allocate stream chunks — 32 KiB of
// kinds, one byte per command, and 32 KiB of segment headers, eight bytes per
// segment — and the slices that list them, and nothing per command. On one
// sub-array (a segment per 32 768 commands, where a kind chunk ends) that is
// ≈ 1 byte per command; with the sub-array changing every command, the worst
// case, every command is a segment of its own: 9 bytes.
func TestRecordedCommandsAllocateOnlyChunks(t *testing.T) {
	const n = 16 << 15 // 16 kind chunks
	s, stream := recordedSubarray()
	mallocs, perCmd := recordCost(n, func(int) *Subarray { return s })
	if mallocs > 2*16+2 || perCmd > 1.1 {
		t.Fatalf("%d commands on one sub-array made %d allocations, %.2f B per command; want ≤ 34 (chunks and their lists) and ≤ 1.1 B", n, mallocs, perCmd)
	}
	t.Logf("one sub-array: %d allocations, %.2f B per command", mallocs, perCmd)
	if len(stream.Commands()) != n || totalCommands(s.meter) != 0 {
		t.Fatalf("stream holds %d commands and the meter %d, want %d and 0: an attached sub-array records into one sink",
			len(stream.Commands()), totalCommands(s.meter), n)
	}

	other := newTestSubarray()
	s, stream = recordedSubarray()
	other.AttachRecorder(stream, 8)
	other.SetStage(exec.StageHashmap)
	mallocs, perCmd = recordCost(n, func(i int) *Subarray {
		if i%2 == 0 {
			return s
		}
		return other
	})
	const segChunks = n >> 12 // one segment per command
	if mallocs > 2*(16+segChunks)+2 || perCmd > 16 {
		t.Fatalf("%d commands alternating between two sub-arrays made %d allocations, %.2f B per command; want ≤ %d and ≤ 16 B",
			n, mallocs, perCmd, 2*(16+segChunks)+2)
	}
	t.Logf("alternating sub-arrays (the worst case): %d allocations, %.2f B per command", mallocs, perCmd)
	if len(stream.Commands()) != n {
		t.Fatalf("stream holds %d commands, want %d", len(stream.Commands()), n)
	}
}

// BenchmarkRecordedCommand times one simulated command end to end — the row
// copy plus its record in the stream — the unit every functional run is made
// of. make bench runs it once.
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
