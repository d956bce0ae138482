package engine

import (
	"context"

	"pimassembler/internal/assembly"
	"pimassembler/internal/genome"
)

// softwareEngine wraps the plain-Go reference pipeline
// (assembly.AssembleSource), so reads stream from src into stage 1.
type softwareEngine struct{}

// Name implements Engine.
func (softwareEngine) Name() string { return "software" }

// Describe implements Engine.
func (softwareEngine) Describe() string {
	return "software reference pipeline (plain Go; wall-clock stage timings + measured op counts)"
}

// Assemble implements Engine.
func (e softwareEngine) Assemble(ctx context.Context, src genome.ReadSource, opts Options) (*Report, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res, err := assembly.AssembleSource(src, opts.Options)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Copies, not &res.Counts: an interior pointer would keep the whole
	// Result — k-mer table and graph — alive as long as the Report.
	counts, timings := res.Counts, res.Timings
	rep := &Report{
		Engine:    e.Name(),
		Family:    FamilySoftware,
		Contigs:   res.Contigs,
		Scaffolds: res.Scaffolds,
		EulerWalk: res.EulerWalk,
		EulerErr:  res.EulerErr,
		Counts:    &counts,
		Timings:   &timings,
	}
	score(rep, opts)
	return rep, nil
}
