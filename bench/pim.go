package bench

import (
	"fmt"
	"strings"

	"pimassembler/internal/core"
	"pimassembler/internal/debruijn"
	"pimassembler/internal/dram"
	"pimassembler/internal/exec"
	"pimassembler/internal/genome"
	"pimassembler/internal/kmer"
	"pimassembler/internal/subarray"
)

// replayPIM is the pim engine's run (engine/pimsim.go over
// assembly.AssemblePIM, serial stage 1) taken apart into its exported core
// calls. The simulator tags commands with their pipeline stage itself, so
// the replay's command stream must equal the engine's; the caller checks the
// contigs and this function checks the simulated totals.
func replayPIM(x *engineInst, tr *Tracer, op, root int, layer map[string]float64) ([]byte, error) {
	var reads []*genome.Sequence
	var err error
	tr.Do("genome.parse", "genome", op, root, func() { reads, err = genome.ReadAll(x.in.Source()) })
	if err != nil {
		return nil, err
	}
	k := x.opts.K
	p := core.NewDefaultPlatform()
	geo := p.Geometry()

	perRow := geo.ColsPerSubarray / genome.BaseBits
	rows := 0
	for _, r := range reads {
		rows += (r.Len() + perRow - 1) / perRow
	}
	bankN := (rows+geo.DataRows()-1)/geo.DataRows() + 1
	var bank *core.SequenceBank
	tr.Do("core.seqbank", "core", op, root, func() {
		bank = core.NewSequenceBank(p, 0, bankN)
		err = bank.StoreAll(reads)
	})
	if err != nil {
		return nil, err
	}

	var table *core.HashTable
	tr.Do("core.hashmap", "core", op, root, func() {
		table = core.NewHashTableAt(p, k, bankN, x.opts.Subarrays)
		bank.Each(func(_ int, r *genome.Sequence) bool {
			kmer.Iterate(r, k, func(km kmer.Kmer) {
				if err == nil {
					_, err = table.Add(km)
				}
			})
			return err == nil
		})
	})
	if err != nil {
		return nil, err
	}

	var g *debruijn.Graph
	tr.Do("core.graph", "core", op, root, func() {
		entries := table.Entries()
		g = debruijn.NewGraphHint(k, len(entries)+1, len(entries))
		for _, e := range entries {
			g.AddKmer(e.Kmer, e.Count)
		}
		// As in the pipeline, a missing Eulerian walk is diagnostic only.
		_, _ = core.NewGraphEngine(p, g, bankN+x.opts.Subarrays).EulerPath()
	})
	layer["kmer.distinct"] = float64(table.Len())
	layer["debruijn.nodes"] = float64(g.NumNodes())
	layer["debruijn.edges"] = float64(g.NumEdges())

	var contigs []debruijn.Contig
	tr.Do("debruijn.traverse", "debruijn", op, root, func() { contigs = g.Contigs() })

	var sum core.Summary
	tr.Do("sched.schedule", "sched", op, root, func() { sum = p.Summarize() })
	if f := x.last.Functional; sum.Commands != f.Commands || sum.Makespan.MakespanNS != f.Makespan.MakespanNS || sum.EnergyPJ != f.EnergyPJ {
		return nil, fmt.Errorf("%w: replay simulated %d commands, %.0f ns, %.0f pJ; the engine %d, %.0f, %.0f",
			errMismatch, sum.Commands, sum.Makespan.MakespanNS, sum.EnergyPJ, f.Commands, f.Makespan.MakespanNS, f.EnergyPJ)
	}
	layer["core.sim_cmds"] = float64(sum.Commands)
	layer["core.sim_energy_uj"] = sum.EnergyPJ / 1e6
	layer["sched.makespan_us"] = sum.Makespan.MakespanNS / 1e3
	for _, st := range []exec.Stage{exec.StageInput, exec.StageHashmap, exec.StageDeBruijn, exec.StageTraverse} {
		name := strings.ToLower(st.String())
		var n int64
		for _, c := range sum.Histogram.PerStage[st] {
			n += c
		}
		layer["exec.cmds."+name] = float64(n)
		layer["sched.makespan_us."+name] = sum.Stages[st].MakespanNS / 1e3
	}

	var out []byte
	tr.Do("genome.write", "genome", op, root, func() { out, err = contigFASTA(contigs) })
	return out, err
}

// subarrayKernels times the two primitives every simulated command stream
// is made of, on one detached sub-array: the 3-AAP staged XNOR (one hash
// probe compare) and the 32-bit bit-serial add (one counter update).
func subarrayKernels(tr *Tracer, layer map[string]float64) {
	sub := subarray.New(dram.Default(), dram.NewMeter(dram.DefaultTiming(), dram.DefaultEnergy()))
	const xnors, adds = 100_000, 10_000
	d := tr.Do("subarray.xnor_row", "subarray", -1, -1, func() {
		for i := 0; i < xnors; i++ {
			sub.XNOR(0, 1, 2)
		}
	})
	layer["subarray.xnor_row_ns"] = float64(d.Nanoseconds()) / xnors
	d = tr.Do("subarray.add32", "subarray", -1, -1, func() {
		for i := 0; i < adds; i++ {
			sub.BitSerialAdd(0, 32, 64, 100, 32)
		}
	})
	layer["subarray.add32_us"] = float64(d.Nanoseconds()) / 1e3 / adds
}
