package bench

import (
	"runtime"
	"time"
)

// This benchmark runs on a few cores of a shared host. For minutes at a time
// a neighbour slows memory-heavy Go code there by 20–95 % while barely moving
// arithmetic: in one stretch the same sw_100k operation went from 2.0 s to
// 3.4 s and sw_noisy_k32 from 2.0 s to 3.9 s while a multiply-add loop went
// from 37.5 ms to 43 ms. The stretches are longer than a run, so no statistic
// taken inside a run removes them, and ten runs of identical code spread past
// any bound the manifest may set (44–61 % over ten consecutive runs that
// straddle one). What a run can do is measure how slow the machine is while
// it runs. speedRef times a fixed kernel — nothing but the Go runtime and
// this file, so no change to the repository moves it — between the
// operations, and Run divides every reported time by
// (median(kernel time) / refNominalMS)^sens. The end-to-end times are
// therefore "at the speed this box has when its neighbours are quiet": equal
// to the wall time then, and steady when they are not. The raw wall times
// and the divisor are printed next to them.
//
// The kernel is shaped like the code under test, because that is what the
// neighbour slows: it allocates and fills refReads read-sized slices
// (streaming writes through fresh memory), then counts refDraws keys from
// refKeys distinct ones in a growing map (hashing and random access over a
// few megabytes). Across 22 runs per workload that ended in such a stretch,
// log kernel time and log operation time correlated 0.95–0.97 (0.80 on
// svc_small), and the worst spread over ten consecutive runs fell from
// 44 / 61 / 15 / 45 / 21 % to 7 / 10 / 4 / 8 / 13 % (sw_100k, sw_noisy_k32,
// pim_600, dist_60k, svc_small). Kernels without allocation — a dependent
// pointer chase over 64 MB, independent random increments, a streaming pass,
// arithmetic — were measured beside it and tracked the operations worse
// (0.2–0.7). In a quiet hour the division costs a little: the kernel's own
// run-to-run spread is 4–5 %, so sw_100k reads 3.4 % raw and 5.5 % divided.
const (
	refReads = 200_000
	refDraws = 400_000
	refKeys  = 150_000
	// refPasses kernel passes make one tick (≈ 0.3 s): a pass alone is
	// shorter than the host's own second-to-second jitter, and a pass that a
	// collection lands in takes a fifth longer (12 % pass to pass), so even
	// the median of a run's 40 passes moves 2–3 % from run to run.
	refPasses = 5
	// refNominalMS is the kernel's median pass on this box (go1.24, Xeon
	// 2.1 GHz VM) over quiet stretches, refNominal1P the same under
	// GOMAXPROCS=1, where its collections do not spill onto a second thread.
	// They only scale the reported times; changing one rescales every run of
	// the workloads that use it alike.
	refNominalMS = 62.0
	refNominal1P = 55.0
)

// refSink keeps the compiler from dropping the kernel's work.
var refSink uint64

// refKernel is one pass of the fixed work; it returns how long it took.
func refKernel() time.Duration {
	t0 := time.Now()
	x := uint64(88172645463325252)
	reads := make([][]byte, 0, refReads)
	for i := 0; i < refReads; i++ {
		b := make([]byte, ReadLen)
		for j := range b {
			x = x*6364136223846793005 + 1442695040888963407
			b[j] = "ACGT"[x>>62]
		}
		reads = append(reads, b)
	}
	counts := make(map[uint64]uint32)
	for i := 0; i < refDraws; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		counts[x%refKeys*0x9E3779B97F4A7C15]++
	}
	var sum uint64
	for k, v := range counts {
		sum += k * uint64(v)
	}
	refSink += sum + uint64(len(reads))
	return time.Since(t0)
}

// speedRef collects kernel timings over one run.
type speedRef struct{ passMS []float64 }

// tick times refPasses passes. Callers tick between timed operations, never
// inside one. It starts from a collected heap, so the collections the kernel
// itself triggers mark only what the workload retains, not what the last
// operation left behind.
func (r *speedRef) tick() {
	runtime.GC()
	for i := 0; i < refPasses; i++ {
		r.passMS = append(r.passMS, ms(refKernel()))
	}
}

// slowdown is how much slower than nominal the machine ran over the ticks.
func (r *speedRef) slowdown(nominalMS float64) float64 { return median(r.passMS) / nominalMS }
