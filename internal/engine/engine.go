// Package engine unifies the repository's three execution paths — the
// software reference pipeline, the functional PIM simulator, and the
// per-platform analytical estimators — behind one pluggable interface and a
// name-keyed registry. Any assembly workload can run on any engine by name,
// apples-to-apples: every engine consumes the same reads and Options and
// produces the same Report shape, with the fields an engine family cannot
// populate left nil. The registry is the seam the ROADMAP's scaling work
// (job queues, sharded multi-engine runs)
// plugs into; see DESIGN.md §10.
package engine

import (
	"context"
	"fmt"

	"pimassembler/internal/assembly"
	"pimassembler/internal/core"
	"pimassembler/internal/debruijn"
	"pimassembler/internal/dram"
	"pimassembler/internal/genome"
	"pimassembler/internal/kmer"
	"pimassembler/internal/metrics"
	"pimassembler/internal/perfmodel"
)

// Family is the engine implementation class; it determines which Report
// fields an engine promises to populate (see the Report field matrix in
// DESIGN.md §10).
type Family int

const (
	// FamilySoftware is the plain-Go reference pipeline: contigs plus
	// wall-clock stage timings and measured operation counts.
	FamilySoftware Family = iota
	// FamilyFunctional is the bit-accurate PIM simulator: contigs plus the
	// recorded command stream's histogram, makespan, and energy.
	FamilyFunctional
	// FamilyAnalytical is a platform cost model: it measures the workload's
	// operation counts with the reference pipeline (or takes them directly
	// via Options.Counts) and prices them through internal/perfmodel.
	FamilyAnalytical
)

var familyNames = [...]string{
	FamilySoftware:   "software",
	FamilyFunctional: "functional",
	FamilyAnalytical: "analytical",
}

// String implements fmt.Stringer.
func (f Family) String() string {
	if int(f) < len(familyNames) {
		return familyNames[f]
	}
	return "unknown"
}

// Options configures one engine run. The embedded assembly.Options carries
// the pipeline parameters every family understands; the remaining fields
// are engine-layer concerns.
type Options struct {
	assembly.Options

	// Subarrays bounds the hash-table spread of the functional PIM engine
	// (0 means the 16-sub-array test-scale default; the analytical engines
	// cover full scale). Other families ignore it.
	Subarrays int

	// Ref optionally provides the reference genome; when set, engines fill
	// Report.Quality with the contigs scored against it. Ref and Counts are
	// not part of the options' JSON form (the worker-process wire format and
	// its handshake hash): both are inputs, not parameters.
	Ref *genome.Sequence `json:"-"`

	// Counts optionally provides a precomputed operation profile for the
	// analytical engines (e.g. assembly.PaperOpCounts for the full-scale
	// chr14 workload). When set, an analytical engine prices these counts
	// directly — reads may be nil and no contigs are produced. Other
	// families ignore it.
	Counts *assembly.OpCounts `json:"-"`
}

// DefaultOptions mirrors assembly.DefaultOptions at the engine layer.
func DefaultOptions() Options {
	return Options{Options: assembly.DefaultOptions(), Subarrays: DefaultSubarrays}
}

// DefaultSubarrays is the functional engine's hash-table spread when
// Options.Subarrays is zero.
const DefaultSubarrays = 16

// Validate reports options no engine can run: what assembly.Options.Validate
// rejects, and a Subarrays the functional engine's hash table cannot take
// out of the default geometry with room left for its sequence bank. Every
// front door (flags, manifest lines, requests) calls it before queueing.
func (o Options) Validate() error {
	if err := o.Options.Validate(); err != nil {
		return err
	}
	if total := dram.Default().TotalSubarrays(); o.Subarrays < 0 || o.Subarrays >= total {
		return fmt.Errorf("engine: subarrays=%d outside [0,%d), the default geometry's sub-array count", o.Subarrays, total)
	}
	return nil
}

func (o Options) subarrays() int {
	if o.Subarrays > 0 {
		return o.Subarrays
	}
	return DefaultSubarrays
}

// Report is the unified result of one engine run. Engine and Family are
// always set; Contigs and the assembly fields are set by every family
// except an analytical run priced from Options.Counts alone; the remaining
// blocks are family-specific and nil where an engine cannot produce them:
//
//	Timings    — software family only (wall-clock per stage)
//	Functional — functional family only (command stream accounting)
//	Cost       — analytical family only (modeled per-stage latency/energy)
type Report struct {
	// Engine is the registry name of the engine that produced this report.
	Engine string
	// Family is the producing engine's implementation class.
	Family Family

	// Contigs is the assembled contig set (nil for counts-only analytical
	// runs).
	Contigs []debruijn.Contig
	// Scaffolds is the stage-3 output when Options.Scaffold was set.
	Scaffolds []assembly.Scaffold
	// EulerWalk and EulerErr mirror assembly.Result: the Eulerian node walk
	// when one exists, or the diagnostic reason none was emitted.
	EulerWalk []kmer.Kmer
	EulerErr  error

	// Counts is the workload's operation profile: measured by the software
	// and functional families, echoed from Options.Counts by the
	// analytical family.
	Counts *assembly.OpCounts
	// Quality scores the contigs against Options.Ref (nil without a
	// reference).
	Quality *metrics.Report

	// Timings is the software family's wall-clock stage breakdown.
	Timings *assembly.StageTimings
	// Functional is the functional family's command-stream accounting:
	// serial totals, scheduled makespan, per-stage schedules, and the
	// command histogram/energy attribution.
	Functional *core.Summary
	// Cost is the analytical family's modeled per-stage latency/energy and
	// power — exactly perfmodel.AssemblyCost of Counts on the engine's
	// platform spec.
	Cost *perfmodel.StageCost
}

// Engine is one pluggable execution path: resolve it from the registry by
// name and run any workload on it.
type Engine interface {
	// Name is the engine's registry name (stable, lower-case).
	Name() string
	// Describe is a one-line human description for listings.
	Describe() string
	// Assemble runs the workload pulled from src. Slice callers wrap
	// their reads in genome.NewSliceSource; src may be nil for counts-only
	// analytical runs. Cancellation is checked before every read pulled
	// from src and at stage boundaries; a cancelled context returns
	// ctx.Err().
	Assemble(ctx context.Context, src genome.ReadSource, opts Options) (*Report, error)
}

// NewReport starts an engine's report from a finished pipeline run — the
// one place assembly.Result fields become Report fields — and scores the
// contigs against opts.Ref when there is one. The family-specific blocks
// are the caller's to add.
func NewReport(name string, family Family, res *assembly.Result, opts Options) *Report {
	// A copy, not &res.Counts: an interior pointer would keep the whole
	// Result — the graph — alive as long as the Report.
	counts := res.Counts
	rep := &Report{
		Engine:    name,
		Family:    family,
		Contigs:   res.Contigs,
		Scaffolds: res.Scaffolds,
		EulerWalk: res.EulerWalk,
		EulerErr:  res.EulerErr,
		Counts:    &counts,
	}
	if opts.Ref != nil && rep.Contigs != nil {
		q := metrics.Evaluate(rep.Contigs, opts.Ref)
		rep.Quality = &q
	}
	return rep
}
