package engine

import (
	"context"
	"fmt"
	"strings"

	"pimassembler/internal/assembly"
	"pimassembler/internal/genome"
	"pimassembler/internal/perfmodel"
	"pimassembler/internal/platforms"
)

// analyticalEngine prices a workload on one platform's analytical model
// (the role the paper's Matlab behavioural simulator plays). The operation
// profile comes either from Options.Counts — full-scale estimates without
// executing anything — or from a measured software reference run, in which
// case the report also carries the real contigs, so "run on the GPU model"
// still assembles the workload.
type analyticalEngine struct {
	spec platforms.Spec
	name string
}

// newAnalyticalEngine wraps one platform spec as an engine.
func newAnalyticalEngine(s platforms.Spec) analyticalEngine {
	return analyticalEngine{spec: s, name: analyticalName(s)}
}

// analyticalName maps a spec's short paper name to the engine's canonical
// registry name.
func analyticalName(s platforms.Spec) string {
	switch s.Name {
	case "P-A":
		return "pim-assembler"
	case "D1":
		return "drisa-1t1c"
	case "D3":
		return "drisa-3t1c"
	default:
		return strings.ToLower(s.Name)
	}
}

// Name implements Engine.
func (e analyticalEngine) Name() string { return e.name }

// Describe implements Engine.
func (e analyticalEngine) Describe() string {
	family := "in-situ PIM"
	if e.spec.Kind == platforms.KindBandwidth {
		family = "bandwidth-bound"
	}
	return fmt.Sprintf("analytical %s model of %s (perfmodel latency/energy over measured or supplied op counts)",
		family, e.spec.Name)
}

// Assemble implements Engine.
func (e analyticalEngine) Assemble(ctx context.Context, src genome.ReadSource, opts Options) (*Report, error) {
	var rep *Report
	if opts.Counts != nil {
		// Counts-only pricing: no execution, no contigs, and no pipeline
		// run to notice a cancelled context.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		counts := *opts.Counts
		rep = &Report{Engine: e.name, Family: FamilyAnalytical, Counts: &counts}
	} else {
		res, err := assembly.AssembleSource(ctx, src, opts.Options)
		if err != nil {
			return nil, err
		}
		rep = NewReport(e.name, FamilyAnalytical, res, opts)
	}
	if err := rep.Counts.Validate(); err != nil {
		return nil, fmt.Errorf("engine %s: %w", e.name, err)
	}
	cost := perfmodel.AssemblyCost(e.spec, *rep.Counts)
	rep.Cost = &cost
	return rep, nil
}

// EstimateAll prices one operation profile on every registered analytical
// engine, in registry order — the unified replacement for ad-hoc
// per-platform estimate loops.
func EstimateAll(counts assembly.OpCounts) []perfmodel.StageCost {
	var out []perfmodel.StageCost
	for _, e := range Engines() {
		a, ok := e.(analyticalEngine)
		if !ok {
			continue
		}
		out = append(out, perfmodel.AssemblyCost(a.spec, counts))
	}
	return out
}
