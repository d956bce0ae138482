// Package parallel is the repository's deterministic fan-out engine: a
// bounded worker pool whose results are merged in task order, so every
// caller produces bit-identical output regardless of GOMAXPROCS, the worker
// count, or goroutine scheduling.
//
// The determinism contract every caller must honour:
//
//  1. Tasks are independent. fn(i) may not read or write state another task
//     touches. The functional simulator is never a task's state: one
//     goroutine drives a core.Platform, whose command stream has no lock.
//  2. Randomness is pre-split. A task never draws from a shared RNG; the
//     caller derives one stats.RNG per task with SplitRNGs (serially, in
//     task order, before the fan-out), so the stream a task consumes does
//     not depend on which worker ran it or when.
//  3. Results are slotted by task index (Map) or written to caller-owned
//     per-task locations (ForEachWorkers), never appended in completion order.
//
// Under this contract workers=1 executes the exact computation the parallel
// run does, which is what the "parallel == serial" regression tests assert.
package parallel

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"pimassembler/internal/stats"
)

// workerOverride holds the process-wide worker-count override set by
// SetWorkers (the -workers flag); 0 means "use GOMAXPROCS".
var workerOverride atomic.Int64

// Workers returns the default fan-out width: the SetWorkers override when
// one is set, otherwise GOMAXPROCS.
func Workers() int {
	if n := workerOverride.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// SetWorkers overrides the default fan-out width (the -workers flag hook).
// n <= 0 restores the automatic GOMAXPROCS default. Output never depends on
// the setting — only wall-clock time does.
func SetWorkers(n int) {
	if n < 0 {
		n = 0
	}
	workerOverride.Store(int64(n))
}

// ForEachWorkers runs fn(0..n-1) on at most workers goroutines. Tasks are
// handed out through an atomic counter, so assignment order is
// scheduling-dependent — callers must follow the package determinism
// contract. workers <= 1 degenerates to a plain loop on the calling
// goroutine. A panic in any task is re-raised on the caller after all
// workers have drained.
func ForEachWorkers(workers, n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		panicMu  sync.Mutex
		panicked any
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicMu.Lock()
					if panicked == nil {
						panicked = r
					}
					panicMu.Unlock()
					// Drain remaining tasks so sibling workers exit fast.
					next.Store(int64(n))
				}
			}()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}

// Map runs fn(0..n-1) on the default worker count and returns the results
// in task order.
func Map[T any](n int, fn func(i int) T) []T {
	return MapWorkers[T](Workers(), n, fn)
}

// MapWorkers is Map with an explicit worker count.
func MapWorkers[T any](workers, n int, fn func(i int) T) []T {
	out := make([]T, n)
	ForEachWorkers(workers, n, func(i int) { out[i] = fn(i) })
	return out
}

// Span is one contiguous chunk of a task range.
type Span struct {
	Lo, Hi int // half-open [Lo, Hi)
}

// Len returns the span width.
func (s Span) Len() int { return s.Hi - s.Lo }

// Spans cuts [0, n) into chunks of at most size elements. The chunking
// depends only on n and size — never on the worker count — so per-chunk
// state (RNG streams, partial sums) is identical however the chunks are
// scheduled.
func Spans(n, size int) []Span {
	if n < 0 {
		panic(fmt.Sprintf("parallel: negative range %d", n))
	}
	if size <= 0 {
		panic(fmt.Sprintf("parallel: non-positive chunk size %d", size))
	}
	out := make([]Span, 0, (n+size-1)/size)
	for lo := 0; lo < n; lo += size {
		hi := lo + size
		if hi > n {
			hi = n
		}
		out = append(out, Span{Lo: lo, Hi: hi})
	}
	return out
}

// SplitRNGs derives n independent generators from parent, serially and in
// task order — the pre-split rule of the determinism contract. The parent
// advances exactly n split steps regardless of how the children are used.
func SplitRNGs(parent *stats.RNG, n int) []*stats.RNG {
	out := make([]*stats.RNG, n)
	for i := range out {
		out[i] = parent.Split()
	}
	return out
}
