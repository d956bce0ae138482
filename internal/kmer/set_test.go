package kmer

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"testing"

	"pimassembler/internal/genome"
	"pimassembler/internal/stats"
)

// entriesOf returns keys as sorted, distinct entries, the form NewSet takes.
func entriesOf(keys []Kmer) []Entry {
	keys = slices.Clone(keys)
	slices.Sort(keys)
	keys = slices.Compact(keys)
	es := make([]Entry, len(keys))
	for i, km := range keys {
		es[i] = Entry{km, 1}
	}
	return es
}

// TestSetMatchesMap checks IndexAll against a map from each key to its rank
// over key sets that hit the index's edges: no key, one key, keys in the
// first and the last prefix, the all-T (zero), all-A and all-C (all-ones)
// codes, a prefix holding more keys than IndexAll probes, and random sets dense
// and sparse in k-mer space, at k ∈ {1, 2, 8, 31, 32}. Queries are every
// key, its code neighbours, the extremes and random codes — every k-mer
// when there are at most 4^4. It also pins the layout: one 8-byte key per
// member plus probeKeys copies of the last, and an index of
// 2^min(bits.Len(n), 2k) + 1 entries.
func TestSetMatchesMap(t *testing.T) {
	rng := stats.NewRNG(91)
	for _, k := range []int{1, 2, 8, 31, 32} {
		mask := Kmer(Mask(k))
		allA := Kmer(0xAAAA_AAAA_AAAA_AAAA) & mask
		random := func(n int) []Kmer {
			keys := make([]Kmer, n)
			for i := range keys {
				keys[i] = Kmer(rng.Uint64()) & mask
			}
			return keys
		}
		dense := 3_000
		if k <= 4 {
			dense = 2 << (2 * k) // twice the k-mers there are
		}
		cases := map[string][]Kmer{
			"empty":          nil,
			"one key":        {allA},
			"first prefix":   {0, 1},
			"last prefix":    {mask, mask - 1},
			"extremes":       {0, allA, mask},
			"crowded prefix": {0, 1, 2, 3, 4 & mask, 5 & mask, 6 & mask, 7 & mask, 8 & mask, 9 & mask, mask},
			"random sparse":  random(50),
			"random dense":   random(dense),
		}
		for name, keys := range cases {
			t.Run(fmt.Sprintf("k%d/%s", k, name), func(t *testing.T) {
				entries := entriesOf(keys)
				want := map[Kmer]int32{}
				for i, e := range entries {
					want[e.Kmer] = int32(i)
				}
				s := NewSet(k, entries)
				if got := s.Keys(); len(got) != len(entries) {
					t.Fatalf("%d keys, want %d", len(got), len(entries))
				}
				idxBits, wantKeys := min(bits.Len(uint(len(want))), 2*k), 0
				if len(want) > 0 {
					wantKeys = len(want) + probeKeys
				}
				if len(s.keys) != wantKeys || len(s.start) != 1<<idxBits+1 {
					t.Fatalf("%d keys and %d index entries for %d k-mers, want %d and %d",
						len(s.keys), len(s.start), len(want), wantKeys, 1<<idxBits+1)
				}
				var queries []Kmer
				if k <= 4 {
					for km := Kmer(0); km <= mask; km++ {
						queries = append(queries, km)
					}
				} else {
					for _, km := range keys {
						queries = append(queries, km, (km-1)&mask, (km+1)&mask)
					}
					queries = append(queries, random(200)...)
					queries = append(queries, 0, 1, allA, mask-1, mask)
				}
				got := make([]int32, len(queries)+1) // longer than the batch
				got[len(queries)] = 7
				s.IndexAll(queries, got)
				for i, km := range queries {
					wantIdx, ok := want[km]
					if !ok {
						wantIdx = -1
					}
					if got[i] != wantIdx {
						t.Fatalf("IndexAll finds %s at %d, want %d", km.String(k), got[i], wantIdx)
					}
					if ok && s.Keys()[got[i]] != km {
						t.Fatalf("key %d is %s, want %s", got[i], s.Keys()[got[i]].String(k), km.String(k))
					}
				}
				if got[len(queries)] != 7 {
					t.Fatal("IndexAll wrote past its batch")
				}
			})
		}
	}
}

// TestSetMatchesCountTable pins the set over a counter's filtered entries to
// the question the corrector asks — is the k-mer's count at least the
// threshold — on the serial table, the bucketed counter before its split and
// after it, with present and absent k-mers and several goroutines looking up
// at once, which the race detector turns into the read-only pin.
func TestSetMatchesCountTable(t *testing.T) {
	rng := stats.NewRNG(77)
	g := genome.GenerateGenome(5_000, rng)
	reads := genome.NewReadSampler(g, 101, 0.01, rng).Sample(400)
	const k = 21
	var queries []Kmer
	for _, r := range reads[:40] {
		queries = AppendKmers(queries, codesOf(r), k)
	}
	for i := 0; i < 500; i++ {
		queries = append(queries, Kmer(rng.Uint64())&Kmer(Mask(k))) // almost surely absent
	}
	// A larger read set takes the bucketed counter past its split.
	split := append(genome.NewReadSampler(genome.GenerateGenome(60_000, rng), 101, 0, rng).Sample(1_000), reads...)
	for _, tc := range []struct {
		name  string
		reads []*genome.Sequence
		table interface {
			FilterMinCount(min uint32) []Entry
		}
	}{
		{"serial", reads, CountReads(reads, k)},
		{"bucketed", reads, CountReadsParallel(reads, k, 2)},
		{"bucketed past the split", split, CountReadsParallel(split, k, 2)},
	} {
		serial := CountReads(tc.reads, k)
		for _, threshold := range []uint32{1, 2, 3} {
			s := NewSet(k, tc.table.FilterMinCount(threshold))
			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					got := make([]int32, len(queries))
					for at := 0; at < len(queries); at += 70 {
						s.IndexAll(queries[at:min(at+70, len(queries))], got[at:])
					}
					for i, km := range queries {
						if want := serial.Count(km) >= threshold; (got[i] >= 0) != want || want && s.Keys()[got[i]] != km {
							t.Errorf("%s, threshold %d: %v found at %d, want it in the set: %v", tc.name, threshold, km, got[i], want)
							return
						}
					}
				}()
			}
			wg.Wait()
		}
	}
}
