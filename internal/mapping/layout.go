// Package mapping implements PIM-Assembler's data placement: the correlated
// partitioning of the k-mer hash table across sub-arrays (Fig. 6) and the
// interval-block partitioning of the de Bruijn graph across chips (Fig. 8),
// plus the parallelism-degree (Pd) replication model of the Fig. 10 study.
package mapping

import (
	"fmt"

	"pimassembler/internal/dram"
	"pimassembler/internal/kmer"
)

// Layout is the row-region plan of one hash-table sub-array, following
// Fig. 6: a k-mer region (one k-mer per 256-bit row, up to 128 bp), a value
// region holding the frequency counters bit-planar, a temp region receiving
// incoming queries, and a reserved region for carry/sum scratch.
//
// The paper draws 980 k-mer rows + 32 value rows + 8 temp rows + 4 reserved,
// which sums to 1024 — but 8 of a sub-array's 1024 rows are the compute rows
// x1..x8 on the modified decoder, leaving 1016 data rows. This layout keeps
// the paper's value/temp budget, grows reserved to 8 (the increment scratch
// needs three rows and Fig. 8's Resv region benefits from headroom), and
// gives the k-mer region the remaining 968 rows. DESIGN.md records the
// discrepancy.
type Layout struct {
	KmerRows     int // k-mer entries, one per row
	ValueRows    int // frequency counters, bit-planar
	TempRows     int // incoming query staging
	ReservedRows int // carry/sum scratch ("Resv." in Fig. 8)
	CounterBits  int // width of one frequency counter
	Cols         int // bit-lines per row
}

// DefaultLayout returns the layout for the paper's 1024×256 sub-array.
func DefaultLayout(g dram.Geometry) Layout {
	l := Layout{
		ValueRows:    32,
		TempRows:     8,
		ReservedRows: 8,
		CounterBits:  8,
		Cols:         g.ColsPerSubarray,
	}
	l.KmerRows = g.DataRows() - l.ValueRows - l.TempRows - l.ReservedRows
	return l
}

// Validate checks the layout against a geometry.
func (l Layout) Validate(g dram.Geometry) error {
	total := l.KmerRows + l.ValueRows + l.TempRows + l.ReservedRows
	if total > g.DataRows() {
		return fmt.Errorf("mapping: layout needs %d rows, sub-array has %d data rows", total, g.DataRows())
	}
	if l.KmerRows <= 0 || l.ValueRows <= 0 || l.TempRows <= 0 || l.ReservedRows <= 0 {
		return fmt.Errorf("mapping: all regions must be non-empty: %+v", l)
	}
	if l.CounterBits <= 0 || l.ValueRows%l.CounterBits != 0 {
		return fmt.Errorf("mapping: value rows %d not divisible by counter width %d", l.ValueRows, l.CounterBits)
	}
	if l.CounterCapacity() < l.KmerRows {
		return fmt.Errorf("mapping: %d counters cannot cover %d k-mer rows", l.CounterCapacity(), l.KmerRows)
	}
	return nil
}

// CounterGroups returns how many independent counter groups the value region
// holds (each group is CounterBits bit-plane rows over Cols lanes).
func (l Layout) CounterGroups() int { return l.ValueRows / l.CounterBits }

// CounterCapacity returns the total number of frequency counters.
func (l Layout) CounterCapacity() int { return l.CounterGroups() * l.Cols }

// Region base rows within the data-row space (k-mer region first, then
// value, temp, reserved).

// KmerRow returns the absolute data row of k-mer slot i.
func (l Layout) KmerRow(i int) int {
	l.checkSlot(i)
	return i
}

// ValueBase returns the first row of the value region.
func (l Layout) ValueBase() int { return l.KmerRows }

// TempBase returns the first row of the temp region.
func (l Layout) TempBase() int { return l.KmerRows + l.ValueRows }

// ReservedBase returns the first row of the reserved region.
func (l Layout) ReservedBase() int { return l.KmerRows + l.ValueRows + l.TempRows }

// CounterLocation returns the counter group's bit-plane base row and the
// lane (column) assigned to k-mer slot i: group = i / Cols, lane = i % Cols.
func (l Layout) CounterLocation(i int) (baseRow, lane int) {
	l.checkSlot(i)
	group := i / l.Cols
	return l.ValueBase() + group*l.CounterBits, i % l.Cols
}

func (l Layout) checkSlot(i int) {
	if i < 0 || i >= l.KmerRows {
		panic(fmt.Sprintf("mapping: k-mer slot %d outside [0,%d)", i, l.KmerRows))
	}
}

// HashPlacement assigns k-mers to (sub-array, home slot) pairs: the
// correlated partitioning that keeps a k-mer's entry, counter, and probes
// local to one sub-array.
type HashPlacement struct {
	Subarrays int
	Layout    Layout
}

// NewHashPlacement builds a placement over n sub-arrays.
func NewHashPlacement(n int, l Layout) HashPlacement {
	if n <= 0 {
		panic(fmt.Sprintf("mapping: non-positive sub-array count %d", n))
	}
	return HashPlacement{Subarrays: n, Layout: l}
}

// Place returns the sub-array index and home slot of a k-mer. The hash's
// low bits select the sub-array (spreading load) and the high bits the home
// row inside the k-mer region (linear probing resolves collisions).
func (p HashPlacement) Place(km kmer.Kmer) (subarray, slot int) {
	h := km.Hash()
	subarray = int(h % uint64(p.Subarrays))
	slot = int((h >> 32) % uint64(p.Layout.KmerRows))
	return subarray, slot
}
