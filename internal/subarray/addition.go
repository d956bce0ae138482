package subarray

import "fmt"

// This file implements PIM-Assembler's in-memory arithmetic (paper §III,
// Fig. 8): numbers live bit-planar — an m-bit vector of 256 lane elements
// occupies m consecutive rows, row base+i holding bit i of every element —
// and addition proceeds bit-serially, one Carry (TRA) and one Sum (latched
// XOR) compute cycle per bit position, "concluded after 2×m cycles".

// BitSerialAdd adds the two m-bit bit-planar numbers at rows aBase and bBase
// and writes the (m+1)-bit result at dstBase (rows dstBase..dstBase+m).
// carryRow is a scratch data row holding the running carry between bit
// positions; it is left holding the final carry (also duplicated at
// dstBase+m).
//
// Per bit position the controller issues: two RowClones staging a_i and b_i
// into x1/x2, the Sum AAP (consuming the latched carry from the previous
// position), two more RowClones restaging the operands, and the TRA AAP
// producing the next carry in both the latch and compute row x3. The two
// compute AAPs per bit match the paper's 2·m-cycle count; the RowClones are
// the staging overhead the end-to-end model charges separately.
func (s *Subarray) BitSerialAdd(aBase, bBase, dstBase, carryRow, m int) {
	if m <= 0 {
		panic(fmt.Sprintf("subarray: BitSerialAdd with non-positive width %d", m))
	}
	s.checkRow(aBase + m - 1)
	s.checkRow(bBase + m - 1)
	s.checkRow(dstBase + m)
	s.checkRow(carryRow)

	x1, x2, x3 := s.ComputeRow(0), s.ComputeRow(1), s.ComputeRow(2)

	// Clear the carry: zero the carry row and the latch.
	s.Fill(carryRow, false)
	s.ResetLatch()
	s.RowClone(carryRow, x3)

	for i := 0; i < m; i++ {
		// Sum cycle: dst_i = a_i XOR b_i XOR latched carry-in.
		s.RowClone(aBase+i, x1)
		s.RowClone(bBase+i, x2)
		s.SumWithLatch(x1, x2, dstBase+i)

		// Carry cycle: x3/latch = MAJ(a_i, b_i, carry-in). The two-row
		// activation destroyed x1/x2, so the operands are restaged.
		s.RowClone(aBase+i, x1)
		s.RowClone(bBase+i, x2)
		s.TRACarry(x1, x2, x3, carryRow)
		// TRA wrote the majority back into x3, which therefore already
		// holds the carry-in for the next bit position.
	}
	// Final carry becomes the top result bit.
	s.RowClone(carryRow, dstBase+m)
}

// CarrySave3 reduces three equal-weight one-bit rows a, b, c into a sum row
// (same weight) and a carry row (next weight up): the "(3) mapping" stage of
// Fig. 8, where every three adjacency-matrix rows collapse into C and S rows
// written to the reserved space. Source rows are not modified.
func (s *Subarray) CarrySave3(a, b, c, dstSum, dstCarry int) {
	s.checkRow(a)
	s.checkRow(b)
	s.checkRow(c)
	s.checkRow(dstSum)
	s.checkRow(dstCarry)

	x1, x2, x3 := s.ComputeRow(0), s.ComputeRow(1), s.ComputeRow(2)
	x4, x5 := s.ComputeRow(3), s.ComputeRow(4)

	// Sum = a XOR b XOR c: two chained two-row XORs via x4/x5.
	s.RowClone(a, x1)
	s.RowClone(b, x2)
	s.TwoRowXOR(x1, x2, x4)
	s.RowClone(c, x5)
	s.TwoRowXOR(x4, x5, dstSum)

	// Carry = MAJ(a, b, c) via triple-row activation.
	s.RowClone(a, x1)
	s.RowClone(b, x2)
	s.RowClone(c, x3)
	s.TRACarry(x1, x2, x3, dstCarry)
}

// PopCountRows sums n one-bit rows per column into an m-bit bit-planar
// counter at dstBase (rows dstBase..dstBase+m-1) — the in/out-degree
// accumulation of the Traverse procedure (Fig. 8). It runs a Wallace-style
// carry-save tree of CarrySave3 reductions followed by one final
// BitSerialAdd, exactly the partition→reduce→ripple flow the figure draws.
//
// scratch must provide at least len(src)+3·m+4 free data rows; they are
// clobbered. dst must not overlap src or scratch. m must satisfy
// 2^m > len(src).
func (s *Subarray) PopCountRows(src []int, dstBase int, scratch []int, m int) {
	if len(src) == 0 {
		panic("subarray: PopCountRows with no source rows")
	}
	if m <= 0 || (m < 63 && (1<<uint(m)) <= len(src)) {
		panic(fmt.Sprintf("subarray: %d-bit counter cannot hold popcount of %d rows", m, len(src)))
	}
	need := len(src) + 3*m + 4
	if len(scratch) < need {
		panic(fmt.Sprintf("subarray: PopCountRows needs %d scratch rows, got %d", need, len(scratch)))
	}

	alloc := newRowPool(scratch)

	// weights[w] lists rows currently holding weight-2^w partial bits.
	weights := make([][]int, m+1)
	weights[0] = append([]int(nil), src...)
	// pooled[r] is set while row r holds a partial the pool handed out, so
	// that it goes back once consumed; source rows must stay intact.
	pooled := make([]bool, s.rows)

	for w := 0; w <= m; w++ {
		for len(weights[w]) >= 3 {
			a, b, c := weights[w][0], weights[w][1], weights[w][2]
			weights[w] = weights[w][3:]
			sum := alloc.take()
			s.CarrySave3(a, b, c, sum, alloc.reserveNextCarry())
			carry := alloc.lastCarry
			pooled[sum] = true
			pooled[carry] = true
			weights[w] = append(weights[w], sum)
			if w+1 <= m {
				weights[w+1] = append(weights[w+1], carry)
			}
			for _, r := range []int{a, b, c} {
				if pooled[r] {
					alloc.give(r)
					pooled[r] = false
				}
			}
		}
	}

	// At most two rows remain per weight: assemble two bit-planar numbers
	// and ripple-add them. Missing positions are zero-filled.
	aBase := make([]int, m)
	bBase := make([]int, m)
	for w := 0; w < m; w++ {
		rows := weights[w]
		switch len(rows) {
		case 0:
			za, zb := alloc.take(), alloc.take()
			s.Fill(za, false)
			s.Fill(zb, false)
			aBase[w], bBase[w] = za, zb
		case 1:
			zb := alloc.take()
			s.Fill(zb, false)
			aBase[w], bBase[w] = rows[0], zb
		default:
			aBase[w], bBase[w] = rows[0], rows[1]
		}
	}

	carryRow := alloc.take()
	// The (m+1)-bit result lands in scratch first; the low m bits are then
	// cloned to dst (the top bit is zero by the 2^m capacity precondition).
	res := alloc.takeN(m + 1)
	s.bitSerialAddAt(aBase, bBase, res, carryRow)
	for w := 0; w < m; w++ {
		s.RowClone(res[w], dstBase+w)
	}
}

// bitSerialAddAt is BitSerialAdd over explicit (not necessarily contiguous)
// row lists; a, b have length m and dst length m+1.
func (s *Subarray) bitSerialAddAt(a, b, dst []int, carryRow int) {
	m := len(a)
	x1, x2, x3 := s.ComputeRow(0), s.ComputeRow(1), s.ComputeRow(2)
	s.Fill(carryRow, false)
	s.ResetLatch()
	s.RowClone(carryRow, x3)
	for i := 0; i < m; i++ {
		s.RowClone(a[i], x1)
		s.RowClone(b[i], x2)
		s.SumWithLatch(x1, x2, dst[i])
		s.RowClone(a[i], x1)
		s.RowClone(b[i], x2)
		s.TRACarry(x1, x2, x3, carryRow)
	}
	s.RowClone(carryRow, dst[m])
}

// rowPool hands out scratch rows and recycles returned ones.
type rowPool struct {
	free      []int
	lastCarry int
}

func newRowPool(rows []int) *rowPool {
	return &rowPool{free: append([]int(nil), rows...)}
}

func (p *rowPool) take() int {
	if len(p.free) == 0 {
		panic("subarray: scratch row pool exhausted")
	}
	r := p.free[0]
	p.free = p.free[1:]
	return r
}

func (p *rowPool) takeN(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = p.take()
	}
	return out
}

// reserveNextCarry takes a row and remembers it as the most recent carry
// destination, letting CarrySave3 call sites read it back.
func (p *rowPool) reserveNextCarry() int {
	p.lastCarry = p.take()
	return p.lastCarry
}

func (p *rowPool) give(r int) { p.free = append(p.free, r) }

// RippleIncrement adds the one-bit row incRow into the m-bit bit-planar
// counter stored at counterRows (LSB first, not necessarily contiguous) —
// the PIM_Add(k_mer, 1) frequency update of the Hashmap procedure. Lanes
// whose incRow bit is 0 are unchanged; lanes at the counter maximum wrap.
//
// carryRow, tmpRow and zeroRow are scratch data rows (clobbered). Per bit
// the controller issues the XOR for the new counter bit and an AND (TRA
// against the zero row, the Ambit identity MAJ(a,b,0) = a∧b) for the next
// carry.
func (s *Subarray) RippleIncrement(counterRows []int, incRow, carryRow, tmpRow, zeroRow int) {
	if len(counterRows) == 0 {
		panic("subarray: RippleIncrement with no counter rows")
	}
	x1, x2, x3 := s.ComputeRow(0), s.ComputeRow(1), s.ComputeRow(2)
	s.Fill(zeroRow, false)
	s.RowClone(incRow, carryRow)
	for _, cRow := range counterRows {
		// tmp = counter ⊕ carry.
		s.RowClone(cRow, x1)
		s.RowClone(carryRow, x2)
		s.TwoRowXOR(x1, x2, tmpRow)
		// carry = counter ∧ carry.
		s.RowClone(cRow, x1)
		s.RowClone(carryRow, x2)
		s.RowClone(zeroRow, x3)
		s.TRACarry(x1, x2, x3, carryRow)
		// counter ← tmp.
		s.RowClone(tmpRow, cRow)
	}
}
