package core

import (
	"fmt"

	"pimassembler/internal/bitvec"
	"pimassembler/internal/exec"
	"pimassembler/internal/genome"
)

// SequenceBank is the "Original Sequence Bank" of Fig. 6: short reads
// stored 2-bit-packed in DRAM rows (128 bp per 256-bit row), from which the
// controller parses k-mers into the hash sub-arrays. Storing the reads in
// simulated DRAM makes the functional pipeline fully memory-resident and
// charges the read-out traffic that the MBR model accounts as dispatch.
type SequenceBank struct {
	platform *Platform
	// firstSubarray..: rows fill sequentially across the bank's sub-arrays.
	firstSubarray int
	subarrays     int

	reads []bankedRead
	// row is the host-side image of the DRAM row being written or read.
	row *bitvec.Vector
	// cursor tracks the next free (sub-array, row).
	curSub, curRow int
}

// bankedRead records where a read lives and its length in bases.
type bankedRead struct {
	sub, row, rows, length int
}

// NewSequenceBank reserves nSubarrays sub-arrays starting at firstSubarray
// for read storage.
func NewSequenceBank(p *Platform, firstSubarray, nSubarrays int) *SequenceBank {
	if nSubarrays <= 0 {
		panic(fmt.Sprintf("core: non-positive bank size %d", nSubarrays))
	}
	if firstSubarray < 0 || firstSubarray+nSubarrays > p.geom.TotalSubarrays() {
		panic(fmt.Sprintf("core: bank [%d,%d) outside the geometry", firstSubarray, firstSubarray+nSubarrays))
	}
	return &SequenceBank{
		platform:      p,
		firstSubarray: firstSubarray,
		subarrays:     nSubarrays,
		row:           bitvec.New(p.geom.ColsPerSubarray),
	}
}

// BasesPerRow returns the packing density (128 bp for 256-bit rows).
func (b *SequenceBank) BasesPerRow() int { return b.platform.geom.ColsPerSubarray / genome.BaseBits }

// Store writes a read into the bank (memory-path writes, metered) and
// returns its handle.
func (b *SequenceBank) Store(read *genome.Sequence) (int, error) {
	if read.Len() == 0 {
		return 0, fmt.Errorf("core: empty read")
	}
	perRow := b.BasesPerRow()
	rows := (read.Len() + perRow - 1) / perRow
	dataRows := b.platform.geom.DataRows()
	if rows > dataRows {
		return 0, fmt.Errorf("core: read of %d bp exceeds one sub-array's %d rows", read.Len(), dataRows)
	}
	// Advance to a sub-array with enough contiguous rows.
	if b.curRow+rows > dataRows {
		b.curSub++
		b.curRow = 0
	}
	if b.curSub >= b.subarrays {
		return 0, fmt.Errorf("core: sequence bank full (%d sub-arrays)", b.subarrays)
	}
	sub := b.platform.Subarray(b.firstSubarray + b.curSub)
	sub.SetStage(exec.StageInput)
	for r := 0; r < rows; r++ {
		b.row.Fill(false)
		for i := 0; i < perRow; i++ {
			pos := r*perRow + i
			if pos >= read.Len() {
				break
			}
			b.row.SetUint64(i*genome.BaseBits, genome.BaseBits, uint64(read.Base(pos)))
		}
		sub.Write(b.curRow+r, b.row)
	}
	handle := len(b.reads)
	b.reads = append(b.reads, bankedRead{sub: b.curSub, row: b.curRow, rows: rows, length: read.Len()})
	b.curRow += rows
	return handle, nil
}

// StoreAll stores a batch, returning the first error.
func (b *SequenceBank) StoreAll(reads []*genome.Sequence) error {
	for i, r := range reads {
		if _, err := b.Store(r); err != nil {
			return fmt.Errorf("read %d: %w", i, err)
		}
	}
	return nil
}

// Fetch reads a stored read back through the memory path (metered), exactly
// as the controller does when parsing short reads to the hash sub-arrays.
// The read-out traffic is tagged StageHashmap: it is stage 1's dispatch.
func (b *SequenceBank) Fetch(handle int) *genome.Sequence {
	if handle < 0 || handle >= len(b.reads) {
		panic(fmt.Sprintf("core: read handle %d outside [0,%d)", handle, len(b.reads)))
	}
	br := b.reads[handle]
	sub := b.platform.Subarray(b.firstSubarray + br.sub)
	sub.SetStage(exec.StageHashmap)
	perRow := b.BasesPerRow()
	out := genome.NewSequence(br.length)
	for r := 0; r < br.rows; r++ {
		sub.ReadInto(br.row+r, b.row)
		for i := 0; i < perRow; i++ {
			pos := r*perRow + i
			if pos >= br.length {
				break
			}
			out.SetBase(pos, genome.Base(b.row.Uint64(i*genome.BaseBits, genome.BaseBits)))
		}
	}
	return out
}

// Each fetches every read in storage order. The callback returns whether to
// continue: returning false stops the stream immediately, so a consumer
// that hits an error does not pay the memory traffic of scanning the rest
// of the bank.
func (b *SequenceBank) Each(fn func(handle int, read *genome.Sequence) bool) {
	for h := range b.reads {
		if !fn(h, b.Fetch(h)) {
			return
		}
	}
}
