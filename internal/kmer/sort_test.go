package kmer

import (
	"reflect"
	"sort"
	"testing"

	"pimassembler/internal/stats"
)

// refSortEntries is the pre-radix reference order: the exact sort.Slice
// call Entries used to make, kept to pin the radix output byte-identical.
func refSortEntries(es []Entry) {
	sort.Slice(es, func(a, b int) bool { return es[a].Kmer < es[b].Kmer })
}

func TestSortEntriesMatchesReference(t *testing.T) {
	rng := stats.NewRNG(40)
	cases := []struct {
		name string
		gen  func(n int) []Entry
		ns   []int
	}{
		{"random-k16", func(n int) []Entry {
			out := make([]Entry, n)
			for i := range out {
				out[i] = Entry{Kmer(rng.Uint64()) & Kmer(Mask(16)), uint32(rng.Intn(100) + 1)}
			}
			return out
		}, []int{0, 1, 2, 3, 17, 48, 49, 100, 5000}},
		{"random-k32-full-width", func(n int) []Entry {
			out := make([]Entry, n)
			for i := range out {
				out[i] = Entry{Kmer(rng.Uint64()), uint32(i + 1)}
			}
			return out
		}, []int{64, 4096}},
		{"tiny-keyspace", func(n int) []Entry {
			out := make([]Entry, n)
			for i := range out {
				out[i] = Entry{Kmer(rng.Uint64() % 7), uint32(rng.Intn(9) + 1)}
			}
			return out
		}, []int{100, 1000}},
		{"all-equal", func(n int) []Entry {
			out := make([]Entry, n)
			for i := range out {
				out[i] = Entry{Kmer(42), uint32(i)}
			}
			return out
		}, []int{300}},
	}
	for _, tc := range cases {
		for _, n := range tc.ns {
			es := tc.gen(n)
			want := append(make([]Entry, 0, n), es...)
			sort.SliceStable(want, func(a, b int) bool { return want[a].Kmer < want[b].Kmer })
			SortEntries(es)
			if !reflect.DeepEqual(es, want) {
				t.Fatalf("%s n=%d: radix order diverges from stable reference", tc.name, n)
			}
		}
	}
}

func TestSortEntriesPresorted(t *testing.T) {
	es := make([]Entry, 2000)
	for i := range es {
		es[i] = Entry{Kmer(i * 3), uint32(i + 1)}
	}
	want := append([]Entry(nil), es...)
	SortEntries(es)
	if !reflect.DeepEqual(es, want) {
		t.Fatal("sorting a sorted slice changed it")
	}
	// Reverse order exercises every distribution pass.
	for i := range es {
		es[i] = want[len(want)-1-i]
	}
	SortEntries(es)
	if !reflect.DeepEqual(es, want) {
		t.Fatal("reverse input not fully sorted")
	}
}

// TestEntriesOrderPinned pins that the table's Entries order is exactly the
// order the old comparison sort produced — distinct keys, so stable vs
// unstable cannot differ, but the regression guards the radix swap.
func TestEntriesOrderPinned(t *testing.T) {
	rng := stats.NewRNG(41)
	tbl := NewCountTable(20, 16)
	for i := 0; i < 4000; i++ {
		tbl.Add(Kmer(rng.Uint64()) & Kmer(Mask(20)))
	}
	got := tbl.Entries()
	want := make([]Entry, 0, tbl.Len())
	tbl.Each(func(km Kmer, c uint32) bool {
		want = append(want, Entry{km, c})
		return true
	})
	refSortEntries(want)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("Entries order diverges from the pre-radix sort.Slice order")
	}
}
