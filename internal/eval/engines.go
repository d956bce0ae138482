package eval

import (
	"context"
	"fmt"
	"io"

	"pimassembler/internal/assembly"
	"pimassembler/internal/debruijn"
	"pimassembler/internal/engine"
	"pimassembler/internal/genome"
	"pimassembler/internal/jobqueue"
)

// EngineRow is one engine's outcome in the cross-engine comparison: the
// same workload run on every registered execution path, apples-to-apples.
// Only deterministic quantities are recorded (no wall clocks), so the
// experiment renders byte-identically for any worker count.
type EngineRow struct {
	Name   string
	Family string
	Err    string

	// Assembly outcome (all families that execute the workload).
	Contigs int
	N50     int
	// Identical reports byte-identical contigs vs the software reference.
	Identical bool

	// Functional family: command-stream accounting.
	Commands   int64
	MakespanNS float64
	EnergyPJ   float64

	// Analytical family: modeled cost of this workload.
	ModelTotalS float64
	ModelPowerW float64
}

// CrossEngine runs every registered engine on the shared stream workload
// (150 reads × 101 bp, k = 16) and compares each contig set byte-for-byte
// against the software reference. The experiment is a thin client of the
// assembly job queue: one job per engine, dispatched onto the bounded
// worker pool, results in registry-slot order — so the result is
// bit-identical for any worker count.
func CrossEngine() []EngineRow {
	reads := streamWorkload()
	opts := engine.Options{Options: assembly.Options{K: 16}, Subarrays: 16}

	names := engine.Names()
	specs := make([]jobqueue.Spec, len(names))
	for i, name := range names {
		// Each spec gets its own source: sources carry a cursor, so jobs
		// must never share one even over the same underlying slice.
		specs[i] = jobqueue.Spec{Name: name, Engine: name, Source: genome.NewSliceSource(reads), Opts: opts}
	}
	q := jobqueue.New(nil)
	results := q.Run(context.Background(), specs)

	// The software reference is always the registry's first engine; its
	// contigs are the baseline of the Identical column.
	var baseline []debruijn.Contig
	for _, r := range results {
		if r.Spec.Engine == "software" && r.Report != nil {
			baseline = r.Report.Contigs
			break
		}
	}

	rows := make([]EngineRow, len(results))
	for i, r := range results {
		row := EngineRow{Name: r.Spec.Name}
		if r.Err != nil {
			row.Err = r.Err.Error()
			rows[i] = row
			continue
		}
		rep := r.Report
		row.Family = rep.Family.String()
		row.Contigs = len(rep.Contigs)
		row.N50 = debruijn.N50(rep.Contigs)
		row.Identical = contigsEqual(baseline, rep.Contigs)
		if rep.Functional != nil {
			row.Commands = rep.Functional.Commands
			row.MakespanNS = rep.Functional.Makespan.MakespanNS
			row.EnergyPJ = rep.Functional.EnergyPJ
		}
		if rep.Cost != nil {
			row.ModelTotalS = rep.Cost.TotalS()
			row.ModelPowerW = rep.Cost.PowerW
		}
		rows[i] = row
	}
	return rows
}

// contigsEqual reports byte-identical contig sets.
func contigsEqual(a, b []debruijn.Contig) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Seq.Equal(b[i].Seq) {
			return false
		}
	}
	return true
}

// RenderEngines writes the cross-engine comparison: every registered
// engine on one workload, the contig cross-check, and each family's native
// cost figures, followed by the analytical engines priced on the full-scale
// chr14 profile (which must reproduce the Fig. 9 perfmodel numbers).
func RenderEngines(w io.Writer) {
	fmt.Fprintln(w, "Cross-engine comparison — one workload, every registered engine")
	fmt.Fprintln(w, "(150 reads x 101 bp, k=16; contigs cross-checked against the software reference)")
	fmt.Fprintln(w)
	fmt.Fprintf(w, "  %-14s %-10s %7s %6s %10s %12s %12s %12s\n",
		"engine", "family", "contigs", "N50", "identical", "cmds", "makespan", "model-total")
	for _, r := range CrossEngine() {
		if r.Err != "" {
			fmt.Fprintf(w, "  %-14s ERROR %s\n", r.Name, r.Err)
			continue
		}
		cmds, makespan, model := "-", "-", "-"
		if r.Commands > 0 {
			cmds = fmt.Sprintf("%d", r.Commands)
			makespan = fmt.Sprintf("%.1f µs", r.MakespanNS/1e3)
		}
		if r.ModelTotalS > 0 {
			model = fmt.Sprintf("%.3g s", r.ModelTotalS)
		}
		fmt.Fprintf(w, "  %-14s %-10s %7d %6d %10v %12s %12s %12s\n",
			r.Name, r.Family, r.Contigs, r.N50, r.Identical, cmds, makespan, model)
	}

	fmt.Fprintln(w, "\n  analytical engines on the full-scale chr14 profile (k=16):")
	counts := PaperCounts(16)
	for _, c := range engine.EstimateAll(counts) {
		fmt.Fprintf(w, "    %s\n", c)
	}
}
