package core

import (
	"errors"
	"fmt"
	"sort"

	"pimassembler/internal/bitvec"
	"pimassembler/internal/exec"
	"pimassembler/internal/kmer"
	"pimassembler/internal/mapping"
	"pimassembler/internal/subarray"
)

// ErrTableFull reports that a sub-array's k-mer region has no free slot left
// on the probe path.
var ErrTableFull = errors.New("core: sub-array k-mer region full")

// HashTable is the PIM-mapped k-mer hash table of Fig. 6: each k-mer lives
// in one row of its home sub-array's k-mer region, its frequency counter in
// the value region (bit-planar, one lane per slot), and queries stage
// through the temp region. Lookups are in-memory row comparisons
// (PIM_XNOR + DPU match), counter updates are in-memory ripple increments
// (PIM_Add), and inserts are RowClones from the temp row (MEM_insert).
//
// The controller tracks slot occupancy — hardware keeps that in the Ctrl's
// SRAM bitmap; the k-mer *values* live only in DRAM rows and every
// comparison really reads them from the functional sub-array.
type HashTable struct {
	platform *Platform
	k        int
	base     int // first sub-array index of the table's region
	place    mapping.HashPlacement
	subs     []*tableSub // by region-relative sub-array: controller-side state, nil until first use
	distinct int
	probes   int64 // cumulative Add slot visits (see ProbeOps)

	// majorityXNOR makes every comparison the Ambit-style majority/NOT
	// composition (18 command slots) instead of the paper's single-cycle
	// two-row XNOR (3 staged): the baseline the end-to-end ablation
	// TestEndToEndOpProfileCosts builds the same table with.
	majorityXNOR bool
}

// tableSub is the controller-side state of one hash sub-array: the slot
// occupancy bitmap plus the staging buffers every Add into that sub-array
// reuses. A table is used from one goroutine, so neither needs a lock.
type tableSub struct {
	occupied []bool
	row      *bitvec.Vector // host-side image of the row being written or read
	counter  []int          // row indices of the counter being incremented
}

// compare runs the table's XNOR into dst.
func (t *HashTable) compare(s *subarray.Subarray, queryRow, entryRow, dst int) {
	if t.majorityXNOR {
		s.XNOREmulatedTRA(queryRow, entryRow, dst)
		return
	}
	s.XNOR(queryRow, entryRow, dst)
}

// NewHashTableAt creates a PIM hash table over sub-arrays
// [base, base+nSubarrays) of the platform, letting it coexist with a
// SequenceBank or graph blocks on the same platform (use a small region for
// functional runs; the analytical model scales to the full geometry).
func NewHashTableAt(p *Platform, k, base, nSubarrays int) *HashTable {
	if k <= 0 || k > kmer.MaxK {
		panic(fmt.Sprintf("core: k=%d outside [1,%d]", k, kmer.MaxK))
	}
	if 2*k > p.layout.Cols {
		panic(fmt.Sprintf("core: %d-mer does not fit a %d-bit row", k, p.layout.Cols))
	}
	if base < 0 || nSubarrays <= 0 || base+nSubarrays > p.geom.TotalSubarrays() {
		panic(fmt.Sprintf("core: table region [%d,%d) outside the geometry", base, base+nSubarrays))
	}
	return &HashTable{
		platform: p,
		k:        k,
		base:     base,
		place:    mapping.NewHashPlacement(nSubarrays, p.layout),
		subs:     make([]*tableSub, nSubarrays),
	}
}

// Len returns the number of distinct k-mers stored.
func (t *HashTable) Len() int { return t.distinct }

// ProbeOps returns the cumulative number of slot visits Add has performed —
// the functional analogue of kmer.CountTable.ProbeOps, feeding the
// operation-count extraction of the analytical models.
func (t *HashTable) ProbeOps() int64 { return t.probes }

// encodeRow packs a k-mer into the full-row staging buffer (2k bits of
// payload, zero-padded) so whole-row XNOR comparison is exact.
func (t *HashTable) encodeRow(st *tableSub, km kmer.Kmer) *bitvec.Vector {
	st.row.Fill(false)
	st.row.SetUint64(0, 2*t.k, uint64(km))
	return st.row
}

// decodeRow unpacks a k-mer from a stored row.
func (t *HashTable) decodeRow(v *bitvec.Vector) kmer.Kmer {
	return kmer.Kmer(v.Uint64(0, 2*t.k))
}

func (t *HashTable) sub(i int) *tableSub {
	st := t.subs[i]
	if st == nil {
		lay := t.platform.layout
		st = &tableSub{
			occupied: make([]bool, lay.KmerRows),
			row:      bitvec.New(lay.Cols),
			counter:  make([]int, lay.CounterBits),
		}
		t.subs[i] = st
	}
	return st
}

// Add runs one iteration of the reconstructed Hashmap procedure (Fig. 5b):
// stage the query in the temp region, probe stored rows with PIM_XNOR until
// a match or a free slot, then either PIM_Add the frequency or MEM_insert
// the new entry with frequency 1. It reports whether the k-mer was newly
// inserted.
func (t *HashTable) Add(km kmer.Kmer) (inserted bool, err error) {
	lay := t.platform.layout
	subIdx, home := t.place.Place(km)
	s := t.platform.Subarray(t.base + subIdx)
	s.SetStage(exec.StageHashmap)
	st := t.sub(subIdx)
	bm := st.occupied

	tempQuery := lay.TempBase()      // temp row 0: the staged query
	tempOneHot := lay.TempBase() + 1 // temp row 1: one-hot increment lane
	xnorOut := lay.ReservedBase()    // reserved row 0: comparison result

	s.Write(tempQuery, t.encodeRow(st, km))

	for probe := 0; probe < lay.KmerRows; probe++ {
		t.probes++
		slot := (home + probe) % lay.KmerRows
		row := lay.KmerRow(slot)
		if !bm[slot] {
			// MEM_insert(k_mer, 1): clone the staged query into the free
			// row and increment the zeroed counter lane to 1.
			s.RowClone(tempQuery, row)
			bm[slot] = true
			t.distinct++
			t.incrementCounter(s, st, slot, tempOneHot)
			return true, nil
		}
		// PIM_XNOR(k_mer, Hmap): whole-row compare + DPU AND reduction.
		t.compare(s, tempQuery, row, xnorOut)
		if s.MatchAllOnes(xnorOut) {
			// New_freq = PIM_Add(k_mer, 1); MEM_insert(k_mer, New_freq):
			// the in-memory increment writes the updated counter bits back
			// without the value ever leaving the sub-array.
			t.incrementCounter(s, st, slot, tempOneHot)
			return false, nil
		}
	}
	return false, fmt.Errorf("%w: sub-array %d (k=%d)", ErrTableFull, subIdx, t.k)
}

// incrementCounter bumps the frequency lane of a slot via the in-memory
// ripple increment.
func (t *HashTable) incrementCounter(s *subarray.Subarray, st *tableSub, slot, oneHotRow int) {
	lay := t.platform.layout
	base, lane := lay.CounterLocation(slot)
	st.row.Fill(false)
	st.row.Set(lane, true)
	s.Write(oneHotRow, st.row)
	for i := range st.counter {
		st.counter[i] = base + i
	}
	resv := lay.ReservedBase()
	s.RippleIncrement(st.counter, oneHotRow, resv+1, resv+2, resv+3)
}

// readCounter reads a slot's frequency lane through the memory path.
func (t *HashTable) readCounter(s *subarray.Subarray, st *tableSub, slot int) uint32 {
	lay := t.platform.layout
	base, lane := lay.CounterLocation(slot)
	var c uint32
	for bit := 0; bit < lay.CounterBits; bit++ {
		s.ReadInto(base+bit, st.row)
		if st.row.Get(lane) {
			c |= 1 << uint(bit)
		}
	}
	return c
}

// Entries reads every stored (k-mer, count) pair back through the memory
// path, sorted by k-mer — used to hand the table to graph construction and
// to cross-check against the software reference. The read-back traffic is
// tagged StageDeBruijn: it is the dispatch feeding graph construction.
func (t *HashTable) Entries() []kmer.Entry {
	var out []kmer.Entry
	for subIdx, st := range t.subs {
		if st == nil {
			continue
		}
		s := t.platform.Subarray(t.base + subIdx)
		s.SetStage(exec.StageDeBruijn)
		for slot, used := range st.occupied {
			if !used {
				continue
			}
			s.ReadInto(t.platform.layout.KmerRow(slot), st.row)
			km := t.decodeRow(st.row)
			out = append(out, kmer.Entry{Kmer: km, Count: t.readCounter(s, st, slot)})
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Kmer < out[b].Kmer })
	return out
}
