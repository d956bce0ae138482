package core

import (
	"cmp"
	"fmt"
	"slices"

	"pimassembler/internal/bitvec"
	"pimassembler/internal/debruijn"
	"pimassembler/internal/exec"
	"pimassembler/internal/kmer"
)

// GraphEngine maps a de Bruijn graph onto PIM-Assembler sub-arrays following
// Fig. 8: nodes are hashed into intervals of up to 256 vertices (f = min(a,b)
// of the 1024×256 sub-array), edges into interval×interval blocks, each
// block stored as a 256×256 adjacency sub-matrix in one sub-array (plus its
// transpose in a second, so both in- and out-degrees reduce along rows).
// Degree computation — the PIM_Add-heavy loop of the Traverse procedure —
// runs as in-memory carry-save popcounts over the adjacency rows.
type GraphEngine struct {
	platform *Platform
	graph    *debruijn.Graph
	nodes    []kmer.Kmer // sorted, indexed by the graph's node rank

	lanes int // vertices per interval (sub-array column count)
	// The non-empty adjacency blocks and their transposes, each in ascending
	// (srcGroup, dstGroup) order: placement and reduction follow it, so a
	// run's command stream is the same every time.
	blocks, transposes []graphBlock
	nextSub            int

	// Row plan inside a graph sub-array.
	matrixBase  int
	degreeBase  int
	scratchBase int
	degreeBits  int
}

// graphBlock is one interval×interval adjacency block (or its transpose) and
// the sub-array holding it.
type graphBlock struct {
	key [2]int // (srcGroup, dstGroup)
	sub int
}

// NewGraphEngine loads g into the platform's sub-arrays and returns the
// engine. Sub-arrays are allocated sequentially from index firstSubarray.
// Vertex numbering is the graph's own dense node rank (sorted-ID order), so
// no side index map is needed.
func NewGraphEngine(p *Platform, g *debruijn.Graph, firstSubarray int) *GraphEngine {
	e := &GraphEngine{
		platform:   p,
		graph:      g,
		nodes:      g.Nodes(),
		lanes:      p.geom.ColsPerSubarray,
		nextSub:    firstSubarray,
		degreeBits: 9, // PopCountRows over 256 rows needs 2^m > 256
	}
	e.matrixBase = 0
	e.degreeBase = e.matrixBase + e.lanes
	e.scratchBase = e.degreeBase + 2*e.degreeBits
	e.load()
	return e
}

// load writes the adjacency blocks (and transposes) into sub-array rows.
func (e *GraphEngine) load() {
	// Accumulate block rows in host memory, then write each row once.
	type blockKey = [2]int
	rows := make(map[blockKey][]*bitvec.Vector)
	trows := make(map[blockKey][]*bitvec.Vector)
	ensure := func(m map[blockKey][]*bitvec.Vector, key blockKey) []*bitvec.Vector {
		if m[key] == nil {
			m[key] = bitvec.NewBatch(e.lanes, e.lanes)
		}
		return m[key]
	}
	for i, u := range e.graph.SortedIDs() {
		sg, sr := i/e.lanes, i%e.lanes
		e.graph.EachOutID(u, func(to int32, _ kmer.Kmer, _ uint32) {
			j := int(e.graph.RankOfID(to))
			dg, dl := j/e.lanes, j%e.lanes
			ensure(rows, blockKey{sg, dg})[sr].Set(dl, true)
			ensure(trows, blockKey{sg, dg})[dl].Set(sr, true)
		})
	}
	// rows and trows hold the same blocks; place both in one sorted order.
	keys := make([]blockKey, 0, len(rows))
	for key := range rows {
		keys = append(keys, key)
	}
	slices.SortFunc(keys, func(a, b blockKey) int {
		return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1]))
	})
	place := func(m map[blockKey][]*bitvec.Vector) []graphBlock {
		placed := make([]graphBlock, 0, len(keys))
		for _, key := range keys {
			sub := e.platform.Subarray(e.nextSub)
			sub.SetStage(exec.StageDeBruijn)
			placed = append(placed, graphBlock{key, e.nextSub})
			e.nextSub++
			for r, v := range m[key] {
				sub.Write(e.matrixBase+r, v)
			}
		}
		return placed
	}
	e.blocks = place(rows)
	e.transposes = place(trows)
}

// Degrees computes the in- and out-degree of every node with in-memory
// popcount reductions over the adjacency blocks, merging the per-block
// partial sums in the controller (each chip reduces its block locally;
// the controller adds the per-interval partials, as in Fig. 8's example
// where the reduced row "4 3 3 2 3 1" gives each vertex's degree).
func (e *GraphEngine) Degrees() (in, out []int) {
	in = make([]int, len(e.nodes))
	out = make([]int, len(e.nodes))
	e.reduceBlocks(e.blocks, func(dstGroup, lane, partial int) {
		node := dstGroup*e.lanes + lane
		if node < len(in) {
			in[node] += partial
		}
	}, false)
	e.reduceBlocks(e.transposes, func(srcGroup, lane, partial int) {
		node := srcGroup*e.lanes + lane
		if node < len(out) {
			out[node] += partial
		}
	}, true)
	return in, out
}

// reduceBlocks runs PopCountRows on every block of table, in order, and
// feeds each lane's partial count to sink(group, lane, partial). For the
// forward blocks the reduced axis is the destination group; for transposes
// the source group (selected by transposed).
func (e *GraphEngine) reduceBlocks(table []graphBlock, sink func(group, lane, partial int), transposed bool) {
	scratch := make([]int, e.lanes+3*e.degreeBits+4)
	for i := range scratch {
		scratch[i] = e.scratchBase + i
	}
	src := make([]int, e.lanes)
	for i := range src {
		src[i] = e.matrixBase + i
	}
	row := bitvec.New(e.lanes) // host-side image of the counter row being read
	for _, b := range table {
		sub := e.platform.Subarray(b.sub)
		sub.SetStage(exec.StageTraverse)
		sub.PopCountRows(src, e.degreeBase, scratch, e.degreeBits)
		group := b.key[1]
		if transposed {
			group = b.key[0]
		}
		// Read the bit-planar partial counters back through the memory
		// path (the controller's merge step).
		for lane := 0; lane < e.lanes; lane++ {
			var c int
			for bit := 0; bit < e.degreeBits; bit++ {
				sub.ReadInto(e.degreeBase+bit, row)
				if row.Get(lane) {
					c |= 1 << uint(bit)
				}
			}
			if c > 0 {
				sink(group, lane, c)
			}
		}
	}
}

// StartVertex runs the Traverse procedure's start-vertex scan using the
// PIM-computed degrees: the vertex with out−in = +1, or the smallest vertex
// with outgoing edges when the graph is balanced (Eulerian circuit).
func (e *GraphEngine) StartVertex() (kmer.Kmer, error) {
	in, out := e.Degrees()
	var start kmer.Kmer
	found := false
	for i, n := range e.nodes {
		switch out[i] - in[i] {
		case 0:
		case 1:
			if found {
				return 0, fmt.Errorf("core: multiple start vertices; graph not Eulerian")
			}
			start, found = n, true
		case -1:
			// end vertex; allowed once — the host EulerPath fully validates.
		default:
			return 0, fmt.Errorf("core: vertex %v unbalanced by %d", n, out[i]-in[i])
		}
	}
	if found {
		return start, nil
	}
	for i, n := range e.nodes {
		if out[i] > 0 {
			return n, nil
		}
	}
	return 0, fmt.Errorf("core: graph has no edges")
}

// EulerPath runs the full Traverse procedure: PIM degree computation and
// start-vertex selection followed by the edge walk (Fleury in the paper;
// Hierholzer here, with the controller making branch decisions while every
// degree test came from in-memory reductions). The walk is validated
// against the graph before being returned.
func (e *GraphEngine) EulerPath() ([]kmer.Kmer, error) {
	if _, err := e.StartVertex(); err != nil {
		return nil, err
	}
	walk, err := e.graph.EulerPath()
	if err != nil {
		return nil, err
	}
	if err := e.graph.ValidateWalk(walk); err != nil {
		return nil, err
	}
	return walk, nil
}
