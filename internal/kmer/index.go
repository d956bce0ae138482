package kmer

// Index interns k-mers into dense int32 IDs: the open-addressing /
// linear-probing discipline of CountTable, generalised from counting to
// identity assignment. IDs are issued in first-insertion order, 0..Len()-1,
// so downstream structures (the de Bruijn graph's CSR adjacency, degree
// vectors, traversal scratch) can be flat arrays indexed by ID instead of
// hash maps keyed by Kmer.
type Index struct {
	k     int
	slots []indexSlot
	kmers []Kmer // id -> k-mer (the reverse mapping)
}

// indexSlot keeps a slot's key beside its ID, so a probe reads one cache
// line.
type indexSlot struct {
	key Kmer
	ref int32 // id+1; 0 marks an empty slot
}

// NewIndex creates an index for k-mers of length k with room for at least
// hint entries before growing.
func NewIndex(k, hint int) *Index {
	checkK(k)
	capacity := tableCapacity(hint)
	return &Index{
		k:     k,
		slots: make([]indexSlot, capacity),
		kmers: make([]Kmer, 0, capacity/2),
	}
}

// K returns the index's k-mer length.
func (x *Index) K() int { return x.k }

// Len returns the number of interned k-mers (and the exclusive upper bound
// of issued IDs).
func (x *Index) Len() int { return len(x.kmers) }

// At returns the k-mer interned as id.
func (x *Index) At(id int32) Kmer { return x.kmers[id] }

// Intern returns km's dense ID, assigning the next free ID on first sight.
func (x *Index) Intern(km Kmer) int32 {
	if len(x.kmers)*2 >= len(x.slots) {
		x.grow()
	}
	mask := uint64(len(x.slots) - 1)
	i := km.Hash() & mask
	for {
		s := &x.slots[i]
		if s.ref == 0 {
			id := int32(len(x.kmers))
			x.kmers = append(x.kmers, km)
			s.key, s.ref = km, id+1
			return id
		}
		if s.key == km {
			return s.ref - 1
		}
		i = (i + 1) & mask
	}
}

// Lookup returns km's ID without inserting.
func (x *Index) Lookup(km Kmer) (int32, bool) {
	mask := uint64(len(x.slots) - 1)
	i := km.Hash() & mask
	for {
		s := x.slots[i]
		if s.ref == 0 {
			return 0, false
		}
		if s.key == km {
			return s.ref - 1, true
		}
		i = (i + 1) & mask
	}
}

func (x *Index) grow() {
	old := x.slots
	x.slots = make([]indexSlot, len(old)*2)
	mask := uint64(len(x.slots) - 1)
	for _, s := range old {
		if s.ref == 0 {
			continue
		}
		j := s.key.Hash() & mask
		for x.slots[j].ref != 0 {
			j = (j + 1) & mask
		}
		x.slots[j] = s
	}
}
