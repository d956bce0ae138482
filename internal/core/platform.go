// Package core is PIM-Assembler's public surface: the Platform ties the
// DRAM organisation, the functional computational sub-arrays, and the data
// mapping together, and exposes the three controller-level operations the
// paper's reconstructed algorithms are written in — PIM_XNOR (bulk row
// comparison), PIM_Add (bit-serial in-memory addition/increment), and
// MEM_insert (row write/copy) — plus the PIM-mapped k-mer hash table and
// de Bruijn graph engine built from them.
package core

import (
	"fmt"

	"pimassembler/internal/dram"
	"pimassembler/internal/exec"
	"pimassembler/internal/mapping"
	"pimassembler/internal/sched"
	"pimassembler/internal/subarray"
)

// Platform is one PIM-Assembler memory group under a single controller.
//
// Sub-arrays are materialised lazily: a functional run touches only the
// sub-arrays its data maps to, while the geometry may describe thousands.
// Every command a sub-array executes is recorded once, as a typed
// per-sub-array record in the platform's exec.Stream — the one record that
// the serial totals, the controller scheduler (makespan) and the per-stage
// energy attribution are all read off (Summarize).
type Platform struct {
	geom   dram.Geometry
	timing dram.Timing
	energy dram.Energy
	layout mapping.Layout

	subs   map[int]*subarray.Subarray
	stream *exec.Stream
	fault  subarray.FaultHook
}

// NewPlatform builds a platform from explicit models.
func NewPlatform(g dram.Geometry, t dram.Timing, e dram.Energy) (*Platform, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	if err := e.Validate(); err != nil {
		return nil, err
	}
	layout := mapping.DefaultLayout(g)
	if err := layout.Validate(g); err != nil {
		return nil, err
	}
	return &Platform{
		geom:   g,
		timing: t,
		energy: e,
		layout: layout,
		subs:   make(map[int]*subarray.Subarray),
		stream: exec.NewStream(),
	}, nil
}

// NewDefaultPlatform builds the paper's §IV configuration.
func NewDefaultPlatform() *Platform {
	p, err := NewPlatform(dram.Default(), dram.DefaultTiming(), dram.DefaultEnergy())
	if err != nil {
		panic(err) // defaults are validated by construction
	}
	return p
}

// Geometry returns the platform's memory organisation.
func (p *Platform) Geometry() dram.Geometry { return p.geom }

// Stream returns the recorded per-sub-array command stream.
func (p *Platform) Stream() *exec.Stream { return p.stream }

// Subarray returns sub-array i, materialising it on first use.
//
// Materialisation mutates the platform's sub-array map, and every sub-array
// records into the platform's one unlocked stream, so one goroutine drives a
// Platform.
func (p *Platform) Subarray(i int) *subarray.Subarray {
	if i < 0 || i >= p.geom.TotalSubarrays() {
		panic(fmt.Sprintf("core: sub-array %d outside [0,%d)", i, p.geom.TotalSubarrays()))
	}
	s, ok := p.subs[i]
	if !ok {
		s = subarray.New(p.geom, nil)
		s.SetFaultHook(p.fault)
		s.AttachRecorder(p.stream, i)
		p.subs[i] = s
	}
	return s
}

// SetFaultHook installs a fault-injection hook on every sub-array the
// platform has materialised and every one it materialises later (nil
// clears). See internal/fault for rate-driven injectors.
func (p *Platform) SetFaultHook(h subarray.FaultHook) {
	p.fault = h
	for _, s := range p.subs {
		s.SetFaultHook(h)
	}
}

// Reset clears all sub-array state and the command stream.
func (p *Platform) Reset() {
	p.subs = make(map[int]*subarray.Subarray)
	p.stream.Reset()
}

// String summarises the platform.
func (p *Platform) String() string {
	return fmt.Sprintf("core.Platform{%v, touched=%d}", p.geom, len(p.subs))
}

// SchedConfig returns the controller's scheduling parameters for this
// platform's geometry and timing.
func (p *Platform) SchedConfig() sched.Config {
	return sched.DefaultConfig(p.geom, p.timing)
}

// Summary bundles every accounting view of one functional run, all derived
// from the recorded stream: the serial totals, the scheduled whole-run
// makespan, the per-stage schedules, and the command histogram and energy
// attribution. It is the functional half of an engine.Report.
type Summary struct {
	// Commands is the total command-slot count.
	Commands int64
	// SerialLatencyNS is the serial command time: every command's duration,
	// summed in stream order.
	SerialLatencyNS float64
	// EnergyPJ is the array dynamic energy: every command's energy, summed
	// in stream order.
	EnergyPJ float64
	// Subarrays is how many sub-arrays the run touched.
	Subarrays int
	// Makespan is the whole-run controller schedule.
	Makespan sched.Result
	// Stages holds each pipeline stage's independent schedule.
	Stages map[exec.Stage]sched.Result
	// Histogram is the per-stage × per-kind command breakdown.
	Histogram exec.Histogram
	// StageCosts is the per-stage serial time and energy attribution.
	StageCosts []exec.StageCost
}

// Summarize snapshots the platform's accounting after a run. The recorded
// stream is walked once, in place, a segment at a time: each segment's
// commands go through the controller's command scheduler (shared bus +
// per-bank activation budget) — for the whole run and for their pipeline
// stage — and into the histogram, attribution and energy tally, in one loop
// (sched.Pass.AddSegment). The serial totals are that walk's: the command
// count from the tally, the serial time from the whole-run schedule and the
// energy from the tally's stream-order sum. Every command carries the
// sub-array it actually executed in, so the makespans reflect the run's real
// data placement rather than a synthetic spread of aggregate counts.
func (p *Platform) Summarize() Summary {
	pass := sched.NewPass(p.SchedConfig())
	tally := exec.NewTally(p.timing, p.energy)
	p.stream.EachSegment(func(seg exec.Segment) { pass.AddSegment(seg, tally) })
	whole, hist := pass.Whole(), tally.Histogram()
	return Summary{
		Commands:        int64(hist.Commands),
		SerialLatencyNS: whole.SerialNS,
		EnergyPJ:        tally.EnergyPJ(),
		Subarrays:       len(p.subs),
		Makespan:        whole,
		Stages:          pass.Stages(),
		Histogram:       hist,
		StageCosts:      tally.StageCosts(),
	}
}
