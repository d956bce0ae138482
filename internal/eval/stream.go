package eval

import (
	"fmt"
	"io"

	"pimassembler/internal/assembly"
	"pimassembler/internal/core"
	"pimassembler/internal/exec"
	"pimassembler/internal/genome"
	"pimassembler/internal/sched"
	"pimassembler/internal/stats"
)

// StreamReport is the command-stream experiment's structured result: the
// per-stage command histogram, the scheduled makespans, and the energy
// attribution of one functional AssemblePIM run.
type StreamReport struct {
	Histogram  exec.Histogram
	StageCosts []exec.StageCost
	Whole      sched.Result
	// WholeSharded schedules the same run's stream in its canonical
	// round-robin interleaving: consecutive commands spread over sub-arrays,
	// as a controller sharding stage 1 by home sub-array would issue them —
	// what it can actually overlap — where the recorded order sends each
	// k-mer's burst to its home sub-array before the next begins.
	WholeSharded sched.Result
	PerStage     map[exec.Stage]sched.Result
	Contigs      int
}

// streamWorkload returns the deterministic read set the experiment assembles.
func streamWorkload() []*genome.Sequence {
	rng := stats.NewRNG(Seed + 7)
	return genome.NewReadSampler(genome.GenerateGenome(2_000, rng), 101, 0, rng).Sample(150)
}

// Stream runs the functional pipeline once and aggregates the recorded
// command stream.
func Stream() StreamReport {
	p := core.NewDefaultPlatform()
	res, err := assembly.AssemblePIM(p, genome.NewSliceSource(streamWorkload()), assembly.Options{K: 16}, 16)
	if err != nil {
		panic(err)
	}
	sum := p.Summarize()
	return StreamReport{
		Histogram:    sum.Histogram,
		StageCosts:   sum.StageCosts,
		Whole:        sum.Makespan,
		WholeSharded: sched.ScheduleStream(p.Stream().Canonical(), p.SchedConfig()),
		PerStage:     sum.Stages,
		Contigs:      len(res.Contigs),
	}
}

// RenderStream writes the command-stream accounting: what each pipeline
// stage issued, what it costs serially and under the controller scheduler,
// and where the energy went.
func RenderStream(w io.Writer) {
	r := Stream()
	fmt.Fprintln(w, "Command stream — per-stage histogram, makespan, and energy attribution")
	fmt.Fprintln(w, "(functional AssemblePIM run, 150 reads x 101 bp, k=16, 16 hash sub-arrays)")
	fmt.Fprintln(w)
	for _, line := range splitLines(r.Histogram.String()) {
		fmt.Fprintln(w, "  "+line)
	}
	fmt.Fprintln(w, "\n  per-stage serial cost and energy (prices the same stream the Meter sums):")
	for _, c := range r.StageCosts {
		fmt.Fprintf(w, "    %s\n", c)
	}
	fmt.Fprintln(w, "\n  controller schedule (shared bus + per-bank activation budget):")
	for _, st := range exec.Stages() {
		res, ok := r.PerStage[st]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "    %-9s makespan %9.1f µs  speedup %5.1fx  peak %3d\n",
			st, res.MakespanNS/1e3, res.Speedup, res.PeakParallel)
	}
	fmt.Fprintf(w, "    %-9s makespan %9.1f µs  speedup %5.1fx  peak %3d\n",
		"whole run", r.Whole.MakespanNS/1e3, r.Whole.Speedup, r.Whole.PeakParallel)
	fmt.Fprintf(w, "    %-9s makespan %9.1f µs  speedup %5.1fx  peak %3d  (sharded stage-1 stream)\n",
		"whole run", r.WholeSharded.MakespanNS/1e3, r.WholeSharded.Speedup, r.WholeSharded.PeakParallel)
	fmt.Fprintf(w, "\n  %d contigs\n", r.Contigs)
}

func splitLines(s string) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}
