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
	res, err := assembly.AssembleSource(ctx, src, opts.Options)
	if err != nil {
		return nil, err
	}
	rep := NewReport(e.Name(), FamilySoftware, res, opts)
	timings := res.Timings // a copy, as the counts are
	rep.Timings = &timings
	return rep, nil
}
