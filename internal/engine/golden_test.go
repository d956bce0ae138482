package engine

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"pimassembler/internal/assembly"
	"pimassembler/internal/core"
	"pimassembler/internal/dram"
	"pimassembler/internal/exec"
	"pimassembler/internal/genome"
	"pimassembler/internal/sched"
	"pimassembler/internal/stats"
)

// goldenReads is the fixed workload of the simulated-statistics pin:
// 200 × 101 bp error-free reads of a 2.6 kbp genome.
func goldenReads() []*genome.Sequence {
	rng := stats.NewRNG(0x9011)
	return genome.NewReadSampler(genome.GenerateGenome(2_600, rng), 101, 0, rng).Sample(200)
}

// bits renders a float64 by its IEEE-754 bit pattern, so the pin below
// fails on a one-ulp drift that a decimal rendering would round away.
func bits(f float64) string { return fmt.Sprintf("%#016x", math.Float64bits(f)) }

func renderResult(sb *strings.Builder, name string, r sched.Result) {
	fmt.Fprintf(sb, "sched %-9s cmds=%d makespan=%s serial=%s speedup=%s bus=%s peak=%d\n",
		name, r.Commands, bits(r.MakespanNS), bits(r.SerialNS), bits(r.Speedup), bits(r.BusBoundPct), r.PeakParallel)
}

func renderSchedules(sb *strings.Builder, whole sched.Result, stages map[exec.Stage]sched.Result) {
	renderResult(sb, "whole", whole)
	for _, st := range exec.Stages() {
		if r, ok := stages[st]; ok {
			renderResult(sb, st.String(), r)
		}
	}
}

func renderHistogram(sb *strings.Builder, h exec.Histogram) {
	kinds := []dram.CommandKind{
		dram.CmdActivate, dram.CmdPrecharge, dram.CmdRead, dram.CmdWrite,
		dram.CmdAAPCopy, dram.CmdAAP2, dram.CmdAAP3, dram.CmdDPU,
	}
	line := func(name string, m map[dram.CommandKind]int64) {
		fmt.Fprintf(sb, "hist  %-9s", name)
		for _, k := range kinds {
			fmt.Fprintf(sb, " %d", m[k])
		}
		fmt.Fprintf(sb, " kinds=%d\n", len(m))
	}
	for _, st := range exec.Stages() {
		if m, ok := h.PerStage[st]; ok {
			line(st.String(), m)
		}
	}
	line("all", h.Totals)
	fmt.Fprintf(sb, "hist  commands=%d\n", h.Commands)
}

// renderSummary renders every number of a core.Summary, floats by bit
// pattern.
func renderSummary(f *core.Summary) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "meter commands=%d latency=%s energy=%s subarrays=%d\n",
		f.Commands, bits(f.SerialLatencyNS), bits(f.EnergyPJ), f.Subarrays)
	renderSchedules(&sb, f.Makespan, f.Stages)
	renderHistogram(&sb, f.Histogram)
	for _, c := range f.StageCosts {
		fmt.Fprintf(&sb, "cost  %-9s cmds=%d serial=%s energy=%s subarrays=%d\n",
			c.Stage, c.Commands, bits(c.SerialNS), bits(c.EnergyPJ), c.Subarrays)
	}
	return sb.String()
}

// goldenSerial and goldenParallel were captured before the
// streaming-accounting rewrite; every later change to subarray, exec, sched
// or core must reproduce them bit for bit. goldenParallel was captured from
// a stage 1 that ran the hash sub-arrays on host goroutines, through
// Canonical: the round-robin interleaving depends only on each sub-array's
// own command subsequence, which that stage 1 kept equal to the serial
// run's, so the serial run reproduces it.
const goldenSerial = `meter commands=1784406 latency=0x419dd93466000000 energy=0x419c84a19bff95ce subarrays=125
sched whole     cmds=1784406 makespan=0x419d877b62000000 serial=0x419dd93466000000 speedup=0x3ff02c47c2c9b594 bus=0x3ffcd085b751b639 peak=3
sched input     cmds=200 makespan=0x40ad4c0000000000 serial=0x40ad4c0000000000 speedup=0x3ff0000000000000 bus=0x401aaaaaaaaaaaab peak=1
sched hashmap   cmds=1236349 makespan=0x41974050cb000000 serial=0x419791c95b000000 speedup=0x3ff0381024689831 bus=0x3ff95ae74cee378d peak=3
sched deBruijn  cmds=50733 makespan=0x412cf6c680000000 serial=0x412d079780000000 speedup=0x3ff0094a2098adcf bus=0x401aba263653cc58 peak=2
sched traverse  cmds=497124 makespan=0x4178341008000000 serial=0x4178348510000000 speedup=0x3ff0004d5d81b978 bus=0x40039683e20c230b peak=2
hist  input     0 0 0 200 0 0 0 0 kinds=1
hist  hashmap   0 0 200 51600 877357 153596 137600 15996 kinds=6
hist  deBruijn  0 0 23085 27648 0 0 0 0 kinds=2
hist  traverse  0 0 248832 1080 165132 54324 27648 108 kinds=6
hist  all       0 0 272117 80528 1042489 207920 165248 16104 kinds=6
hist  commands=1784406
cost  input     cmds=200 serial=0x40ad4c0000000000 energy=0x40c3880000000000 subarrays=1
cost  hashmap   cmds=1236349 serial=0x419791c95b000000 energy=0x41949e19c266511d subarrays=17
cost  deBruijn  cmds=50733 serial=0x412d079780000000 energy=0x41435a6500000000 subarrays=124
cost  traverse  cmds=497124 serial=0x4178348510000000 energy=0x417d2c61c6668462 subarrays=108
`

const goldenParallel = `meter commands=1784406 subarrays=125 stream=1784406
sched whole     cmds=1784406 makespan=0x415f789190000000 serial=0x419dd93466000000 speedup=0x402e59a75e7fc9bd bus=0x403b0964ecb25f64 peak=32
sched input     cmds=200 makespan=0x40ad4c0000000000 serial=0x40ad4c0000000000 speedup=0x3ff0000000000000 bus=0x401aaaaaaaaaaaab peak=1
sched hashmap   cmds=1236349 makespan=0x415c8f4190000000 serial=0x419791c95b000000 speedup=0x402a68a426eb2875 bus=0x4034a4710fd1e5d6 peak=17
sched deBruijn  cmds=50733 makespan=0x4111538c00000000 serial=0x412d079780000000 speedup=0x400aceb19c4e2fc0 bus=0x403656e957967d20 peak=15
sched traverse  cmds=497124 makespan=0x412d45f700000000 serial=0x4178348510000000 speedup=0x403a75b3e50eee15 bus=0x4050320948918254 peak=32
hist  input     0 0 0 200 0 0 0 0 kinds=1
hist  hashmap   0 0 200 51600 877357 153596 137600 15996 kinds=6
hist  deBruijn  0 0 23085 27648 0 0 0 0 kinds=2
hist  traverse  0 0 248832 1080 165132 54324 27648 108 kinds=6
hist  all       0 0 272117 80528 1042489 207920 165248 16104 kinds=6
hist  commands=1784406
`

// TestGoldenSimulatedStatistics pins every simulated number the functional
// engine reports — command counts, the float64 bit patterns of the serial
// latency, energy and every schedule field, the histogram, and the stage
// attribution — for one fixed workload, in tier-1 (the benchmark under
// bench/ checks the same totals, but only when it is run).
func TestGoldenSimulatedStatistics(t *testing.T) {
	reads := goldenReads()
	opts := Options{Options: assembly.Options{K: 16}, Subarrays: 16}

	t.Run("serial", func(t *testing.T) {
		rep, err := mustLookup(t, "pim").Assemble(context.Background(), genome.NewSliceSource(reads), opts)
		if err != nil {
			t.Fatal(err)
		}
		if got := renderSummary(rep.Functional); got != goldenSerial {
			t.Fatalf("simulated statistics drifted.\ngot:\n%s\nwant:\n%s", got, goldenSerial)
		}
	})

	// The same run's stream in its canonical interleaving — the overlap a
	// controller could extract — scheduled whole and stage by stage.
	t.Run("canonical", func(t *testing.T) {
		p := core.NewDefaultPlatform()
		if _, err := assembly.AssemblePIM(p, genome.NewSliceSource(reads), opts.Options, opts.Subarrays); err != nil {
			t.Fatal(err)
		}
		canonical := p.Stream().Canonical()
		sum := p.Summarize()
		var sb strings.Builder
		fmt.Fprintf(&sb, "meter commands=%d subarrays=%d stream=%d\n", sum.Commands, sum.Subarrays, len(canonical))
		renderSchedules(&sb, sched.ScheduleStream(canonical, p.SchedConfig()), sched.ScheduleStages(canonical, p.SchedConfig()))
		renderHistogram(&sb, sum.Histogram)
		if got := sb.String(); got != goldenParallel {
			t.Fatalf("simulated statistics drifted.\ngot:\n%s\nwant:\n%s", got, goldenParallel)
		}
	})
}
