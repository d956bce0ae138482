package core_test

import (
	"reflect"
	"testing"

	"pimassembler/internal/assembly"
	"pimassembler/internal/bitvec"
	"pimassembler/internal/core"
	"pimassembler/internal/dram"
	"pimassembler/internal/exec"
	"pimassembler/internal/genome"
	"pimassembler/internal/sched"
	"pimassembler/internal/stats"
)

// perCommandSummarize is Summarize as it was before the stream stored
// segments, kept as its oracle: every recorded command, one at a time,
// through the whole-run scheduler, its stage's scheduler and an exec.Tally,
// with the three serial totals summed command by command in stream order.
// Subarrays, how many sub-arrays the run materialised, is no walk figure and
// is taken from Summarize.
func perCommandSummarize(p *core.Platform) core.Summary {
	cmds := p.Stream().Commands()
	tm, en := dram.DefaultTiming(), dram.DefaultEnergy()
	tally := exec.NewTally(tm, en)
	var latency, energy float64
	for _, c := range cmds {
		sums, total, dur, pj := tally.Open(c.Subarray, c.Stage)
		sums.Counts[c.Kind]++
		sums.SerialNS += dur[c.Kind]
		sums.EnergyPJ += pj[c.Kind]
		*total += pj[c.Kind]
		latency += dram.Duration(c.Kind, tm)
		energy += dram.EnergyOf(c.Kind, en)
	}
	return core.Summary{
		Commands:        int64(len(cmds)),
		SerialLatencyNS: latency,
		EnergyPJ:        energy,
		Subarrays:       p.Summarize().Subarrays,
		Makespan:        sched.ScheduleStream(cmds, p.SchedConfig()),
		Stages:          sched.ScheduleStages(cmds, p.SchedConfig()),
		Histogram:       tally.Histogram(),
		StageCosts:      tally.StageCosts(),
	}
}

// pimPlatform runs AssemblePIM over reads sampled from a genome of genomeLen
// bases with 16 hash sub-arrays and returns the platform it ran on.
func pimPlatform(tb testing.TB, seed uint64, genomeLen, reads int, opts assembly.Options) *core.Platform {
	tb.Helper()
	rng := stats.NewRNG(seed)
	ref := genome.GenerateGenome(genomeLen, rng)
	p := core.NewDefaultPlatform()
	src := genome.NewSliceSource(genome.NewReadSampler(ref, 101, 0, rng).Sample(reads))
	if _, err := assembly.AssemblePIM(p, src, opts, 16); err != nil {
		tb.Fatal(err)
	}
	return p
}

// TestSummarizeMatchesPerCommandWalk pins the segment walk against the
// per-command one, with DeepEqual — every schedule field, every histogram
// count and every float of the totals and the attribution — on a serial run
// (long segments to each k-mer's home sub-array) and a bulk run (row-sized
// XNORs dealt round-robin over eight sub-arrays under the bulk stage, so the
// stream is short segments that alternate between sub-arrays).
func TestSummarizeMatchesPerCommandWalk(t *testing.T) {
	bulk := func() *core.Platform {
		const subs, rows = 8, 80
		p := core.NewDefaultPlatform()
		rng := stats.NewRNG(3)
		row := p.Geometry().RowBits()
		a, b, res := bitvec.New(row), bitvec.New(row), bitvec.New(row)
		for i := 0; i < rows; i++ {
			for j := 0; j < row; j++ {
				a.Set(j, rng.Float64() < 0.5)
				b.Set(j, rng.Float64() < 0.5)
			}
			s := p.Subarray(i % subs)
			s.SetStage(exec.StageBulk)
			s.Write(0, a)
			s.Write(1, b)
			s.XNOR(0, 1, 2)
			s.ReadInto(2, res)
		}
		return p
	}
	for _, run := range []struct {
		name string
		p    func() *core.Platform
	}{
		{"serial", func() *core.Platform { return pimPlatform(t, 91, 1200, 120, assembly.Options{K: 15}) }},
		{"bulk", bulk},
	} {
		t.Run(run.name, func(t *testing.T) {
			p := run.p()
			if got, want := p.Summarize(), perCommandSummarize(p); !reflect.DeepEqual(got, want) {
				t.Fatalf("Summarize\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

// BenchmarkSummarize times Summarize alone, on the command stream of one
// pim_600-shaped run (200 reads of 101 bp from a 2.6 kbp genome, k = 16, 16
// hash sub-arrays) recorded once: the walk's cost without the simulator
// around it. make bench runs it once.
func BenchmarkSummarize(b *testing.B) {
	p := pimPlatform(b, 1, 2_600, 200, assembly.Options{K: 16})
	cmds := float64(p.Summarize().Commands)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Summarize()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/cmds, "ns/cmd")
}
