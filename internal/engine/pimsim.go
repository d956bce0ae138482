package engine

import (
	"context"

	"pimassembler/internal/assembly"
	"pimassembler/internal/core"
	"pimassembler/internal/genome"
)

// pimEngine wraps the functional PIM simulator (assembly.AssemblePIMContext)
// over a fresh default platform per run, so concurrent engine runs never
// share sub-array state or command streams.
type pimEngine struct{}

// Name implements Engine.
func (pimEngine) Name() string { return "pim" }

// Describe implements Engine.
func (pimEngine) Describe() string {
	return "functional PIM simulator (bit-accurate sub-arrays; command histogram, makespan, energy)"
}

// Assemble implements Engine.
func (e pimEngine) Assemble(ctx context.Context, src genome.ReadSource, opts Options) (*Report, error) {
	p := core.NewDefaultPlatform()
	res, err := assembly.AssemblePIMContext(ctx, p, src, opts.Options, opts.subarrays())
	if err != nil {
		return nil, err
	}
	summary := p.Summarize()
	rep := NewReport(e.Name(), FamilyFunctional, &res.Result, opts)
	rep.Functional = &summary
	return rep, nil
}
