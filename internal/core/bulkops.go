package core

import (
	"fmt"

	"pimassembler/internal/bitvec"
	"pimassembler/internal/exec"
	"pimassembler/internal/parallel"
	"pimassembler/internal/subarray"
)

// Bulk bit-wise operations: the §II-B workload. A bulk operand is split into
// row-sized chunks distributed round-robin over sub-arrays; every chunk is
// staged through the memory path, computed with the in-memory primitive, and
// read back. Per the paper's software-support rule, operand sizes must be a
// multiple of the DRAM row size — BulkPad applies the dummy-data padding the
// paper requires otherwise.
//
// Chunks on distinct sub-arrays are independent, so the simulator executes
// them through the parallel fan-out engine: one worker per active sub-array,
// each processing its own chunk sequence in order. The digital result, the
// recorded command stream — and so every total Summarize reads off it — and
// each sub-array's final state are bit-identical for any worker count (see
// Platform.ParallelRegion).

// BulkPad returns n rounded up to the next multiple of the row size, the
// padding rule of the AAP instruction set ("the application must pad it
// with dummy data").
func (p *Platform) BulkPad(nBits int) int {
	row := p.geom.RowBits()
	return (nBits + row - 1) / row * row
}

// bulkSubarrays materialises (serially — materialisation mutates the
// platform) the sub-arrays the round-robin chunk distribution will touch,
// tags them with the bulk stage, and returns them indexed by sub-array.
func (p *Platform) bulkSubarrays(nChunks int) []*subarray.Subarray {
	active := p.geom.ActiveSubarrays()
	if active > nChunks {
		active = nChunks
	}
	subs := make([]*subarray.Subarray, active)
	for i := range subs {
		subs[i] = p.Subarray(i)
		subs[i].SetStage(exec.StageBulk)
	}
	return subs
}

// bulkWorkers returns the fan-out width for a bulk operation over row-bit
// chunks. Direct word-level writes into the shared output vector are only
// race-free when chunk boundaries are word-aligned; otherwise the operation
// degenerates to one worker (bit-identical, just serial).
func bulkWorkers(rowBits int) int {
	if rowBits%64 != 0 {
		return 1
	}
	return parallel.Workers()
}

// bulkRun distributes the sub-arrays over the fan-out pool: worker w owns
// sub-arrays w, w+workers, ... and processes each exactly once. The worker
// factory is invoked once per worker so row-staging buffers are allocated
// per worker, not per sub-array; the returned function runs for every
// sub-array the worker owns.
func (p *Platform) bulkRun(subs []*subarray.Subarray, worker func() func(si int, s *subarray.Subarray)) {
	workers := bulkWorkers(p.geom.RowBits())
	if workers > len(subs) {
		workers = len(subs)
	}
	p.ParallelRegion(0, len(subs), func() {
		parallel.ForEachWorkers(workers, workers, func(w int) {
			fn := worker()
			for si := w; si < len(subs); si += workers {
				fn(si, subs[si])
			}
		})
	})
}

// BulkXNOR computes the elementwise XNOR of two equal-length bit vectors on
// the functional sub-arrays and returns the result. Operand length must be
// a multiple of the row size (use BulkPad).
func (p *Platform) BulkXNOR(a, b *bitvec.Vector) *bitvec.Vector {
	p.checkBulk(a, b)
	row := p.geom.RowBits()
	nChunks := a.Len() / row
	out := bitvec.New(a.Len())
	subs := p.bulkSubarrays(nChunks)
	lay := p.layout
	ra, rb, rOut := lay.ReservedBase(), lay.ReservedBase()+1, lay.ReservedBase()+2
	p.bulkRun(subs, func() func(int, *subarray.Subarray) {
		opA, opB, res := bitvec.New(row), bitvec.New(row), bitvec.New(row)
		return func(si int, s *subarray.Subarray) {
			for chunk := si; chunk < nChunks; chunk += len(subs) {
				off := chunk * row
				a.CopySlice(opA, off)
				b.CopySlice(opB, off)
				s.Write(ra, opA)
				s.Write(rb, opB)
				s.XNOR(ra, rb, rOut)
				s.ReadInto(rOut, res)
				out.WriteSlice(off, res)
			}
		}
	})
	return out
}

func (p *Platform) checkBulk(a, b *bitvec.Vector) {
	if a.Len() != b.Len() {
		panic(fmt.Sprintf("core: bulk operand lengths differ: %d vs %d", a.Len(), b.Len()))
	}
	if a.Len()%p.geom.RowBits() != 0 {
		panic(fmt.Sprintf("core: bulk operand length %d not a multiple of the %d-bit row; apply BulkPad",
			a.Len(), p.geom.RowBits()))
	}
}
