package exec

import (
	"reflect"
	"sort"
	"sync"
	"testing"

	"pimassembler/internal/dram"
	"pimassembler/internal/stats"
)

// randomStream records n commands spread over a few dozen sub-arrays, every
// kind and stage, and returns them beside the stream.
func randomStream(seed uint64, n int) (*Stream, []Command) {
	rng := stats.NewRNG(seed)
	s := NewStream()
	want := make([]Command, n)
	for i := range want {
		k := dram.CommandKind(rng.Intn(dram.NumCommandKinds))
		want[i] = Command{Subarray: rng.Intn(40) * 3, Kind: k, Stage: Stage(rng.Intn(int(numStages))), Rows: k.SourceRows()}
		s.Record(want[i])
	}
	return s, want
}

// refCanonical is the original map-per-command Canonical, kept as the
// oracle for the counting-sort rewrite.
func refCanonical(cmds []Command) []Command {
	bySub := make(map[int][]Command)
	var ids []int
	for _, c := range cmds {
		if _, ok := bySub[c.Subarray]; !ok {
			ids = append(ids, c.Subarray)
		}
		bySub[c.Subarray] = append(bySub[c.Subarray], c)
	}
	sort.Ints(ids)
	out := make([]Command, 0, len(cmds))
	pos := make(map[int]int, len(ids))
	for len(out) < len(cmds) {
		for _, id := range ids {
			if pos[id] < len(bySub[id]) {
				out = append(out, bySub[id][pos[id]])
				pos[id]++
			}
		}
	}
	return out
}

// TestChunkedStreamRoundTrip crosses several chunk boundaries: the compact
// chunked log must hand back exactly what was recorded, in order, through
// Commands, Each and Canonical, and again after a Reset reuses the chunks.
func TestChunkedStreamRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, chunkLen - 1, chunkLen, chunkLen + 1, 3*chunkLen + 17} {
		s, want := randomStream(uint64(n)+1, n)
		for round := 0; round < 2; round++ {
			if s.Len() != n {
				t.Fatalf("n=%d: Len %d", n, s.Len())
			}
			got := s.Commands()
			if len(got) != n || (n > 0 && !reflect.DeepEqual(got, want)) {
				t.Fatalf("n=%d: Commands differ from what was recorded", n)
			}
			var walked []Command
			s.Each(func(c Command) { walked = append(walked, c) })
			if len(walked) != n || (n > 0 && !reflect.DeepEqual(walked, want)) {
				t.Fatalf("n=%d: Each differs from what was recorded", n)
			}
			if canon, ref := s.Canonical(), refCanonical(want); len(canon) != n || (n > 0 && !reflect.DeepEqual(canon, ref)) {
				t.Fatalf("n=%d: Canonical differs from the reference interleaving", n)
			}
			s.Reset()
			if s.Len() != 0 || len(s.Commands()) != 0 {
				t.Fatalf("n=%d: Reset left commands behind", n)
			}
			for _, c := range want {
				s.Record(c)
			}
		}
	}
}

// TestTallyMatchesMapViews recomputes the histogram and the attribution the
// way the stream used to — maps keyed per command, pricing through
// dram.Duration/EnergyOf in stream order — and demands the array-backed
// Tally's exported shapes equal them exactly, floats included.
func TestTallyMatchesMapViews(t *testing.T) {
	tm, en := dram.DefaultTiming(), dram.DefaultEnergy()
	s, cmds := randomStream(7, 2*chunkLen+5)

	wantHist := Histogram{
		PerStage: make(map[Stage]map[dram.CommandKind]int64),
		Totals:   make(map[dram.CommandKind]int64),
		Commands: len(cmds),
	}
	costs := make(map[Stage]*StageCost)
	subs := make(map[Stage]map[int]struct{})
	seen := make(map[int]struct{})
	for _, c := range cmds {
		if wantHist.PerStage[c.Stage] == nil {
			wantHist.PerStage[c.Stage] = make(map[dram.CommandKind]int64)
			costs[c.Stage] = &StageCost{Stage: c.Stage}
			subs[c.Stage] = make(map[int]struct{})
		}
		wantHist.PerStage[c.Stage][c.Kind]++
		wantHist.Totals[c.Kind]++
		sc := costs[c.Stage]
		sc.Commands++
		sc.SerialNS += dram.Duration(c.Kind, tm)
		sc.EnergyPJ += dram.EnergyOf(c.Kind, en)
		subs[c.Stage][c.Subarray] = struct{}{}
		seen[c.Subarray] = struct{}{}
	}
	var wantCosts []StageCost
	for _, st := range Stages() {
		if sc := costs[st]; sc != nil {
			sc.Subarrays = len(subs[st])
			wantCosts = append(wantCosts, *sc)
		}
	}

	if got := s.Histogram(); !reflect.DeepEqual(got, wantHist) {
		t.Fatalf("Histogram\n got %+v\nwant %+v", got, wantHist)
	}
	if got := s.Totals(); !reflect.DeepEqual(got, wantHist.Totals) {
		t.Fatalf("Totals %v, want %v", got, wantHist.Totals)
	}
	if got := s.Attribute(tm, en); !reflect.DeepEqual(got, wantCosts) {
		t.Fatalf("Attribute\n got %+v\nwant %+v", got, wantCosts)
	}
	if got := s.Subarrays(); got != len(seen) {
		t.Fatalf("Subarrays %d, want %d", got, len(seen))
	}

	// A Tally fed from Each is the same accounting without the stream.
	ta := NewTally(tm, en)
	s.Each(ta.Add)
	if !reflect.DeepEqual(ta.Histogram(), wantHist) || !reflect.DeepEqual(ta.StageCosts(), wantCosts) || ta.Subarrays() != len(seen) {
		t.Fatal("Tally fed from Each differs from the stream's own views")
	}
}

// TestRecordRejectsUnrecordable pins the emission-point check: a command the
// compact record cannot hold panics instead of being truncated.
func TestRecordRejectsUnrecordable(t *testing.T) {
	for _, c := range []Command{
		{Subarray: -1, Kind: dram.CmdRead, Rows: 1},
		{Subarray: 0, Kind: dram.CommandKind(dram.NumCommandKinds), Rows: 1},
		{Subarray: 0, Kind: dram.CommandKind(-1), Rows: 1},
		{Subarray: 0, Kind: dram.CmdRead, Stage: numStages, Rows: 1},
		{Subarray: 0, Kind: dram.CmdRead, Rows: 256},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Record accepted %+v", c)
				}
			}()
			NewStream().Record(c)
		}()
	}
}

// TestEachWaitsOutConcurrentRecords walks the stream while other goroutines
// append to it: every walk must see a prefix-consistent snapshot (run under
// -race by make test-race).
func TestEachWaitsOutConcurrentRecords(t *testing.T) {
	s := NewStream()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 3*chunkLen; i++ {
				s.Record(Command{Subarray: w, Kind: dram.CmdAAP2, Stage: StageHashmap, Rows: 2})
			}
		}(w)
	}
	for i := 0; i < 20; i++ {
		n, before := 0, s.Len()
		s.Each(func(Command) { n++ })
		if after := s.Len(); n < before || n > after {
			t.Errorf("walk saw %d commands, stream held %d before and %d after", n, before, after)
		}
	}
	wg.Wait()
	if s.Len() != 12*chunkLen {
		t.Fatalf("len %d, want %d", s.Len(), 12*chunkLen)
	}
}
