package exec

import (
	"reflect"
	"sort"
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
			if s.n != n {
				t.Fatalf("n=%d: Len %d", n, s.n)
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
			if s.n != 0 || len(s.Commands()) != 0 {
				t.Fatalf("n=%d: Reset left commands behind", n)
			}
			for _, c := range want {
				s.Record(c)
			}
		}
	}
}

// TestTallyMatchesMapViews recomputes the histogram, the attribution and the
// run's energy the way the stream used to — maps keyed per command, pricing
// through dram.Duration/EnergyOf in stream order — and demands the
// array-backed Tally's exported shapes equal them exactly, floats included.
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
	var wantEnergy float64
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
		wantEnergy += dram.EnergyOf(c.Kind, en)
	}
	var wantCosts []StageCost
	for _, st := range Stages() {
		if sc := costs[st]; sc != nil {
			sc.Subarrays = len(subs[st])
			wantCosts = append(wantCosts, *sc)
		}
	}

	whole := tallyOf(s, tm, en)
	if got := whole.Histogram(); !reflect.DeepEqual(got, wantHist) {
		t.Fatalf("Histogram\n got %+v\nwant %+v", got, wantHist)
	}
	if got := whole.StageCosts(); !reflect.DeepEqual(got, wantCosts) {
		t.Fatalf("StageCosts\n got %+v\nwant %+v", got, wantCosts)
	}
	if got := touched(whole); got != len(seen) {
		t.Fatalf("Subarrays %d, want %d", got, len(seen))
	}
	if got := whole.EnergyPJ(); got != wantEnergy {
		t.Fatalf("EnergyPJ %v, want %v", got, wantEnergy)
	}

	// A Tally fed one command at a time from Each is the same accounting
	// without the stream.
	ta := NewTally(tm, en)
	s.Each(func(c Command) { addCommand(ta, c) })
	if !reflect.DeepEqual(ta.Histogram(), wantHist) || !reflect.DeepEqual(ta.StageCosts(), wantCosts) || touched(ta) != len(seen) || ta.EnergyPJ() != wantEnergy {
		t.Fatal("Tally fed from Each differs from the stream's own views")
	}
}

// TestRecordRejectsUnrecordable pins the emission-point check: a command the
// compact record cannot hold panics instead of being truncated.
func TestRecordRejectsUnrecordable(t *testing.T) {
	for _, c := range []Command{
		{Subarray: -1, Kind: dram.CmdRead},
		{Subarray: maxSubarray + 1, Kind: dram.CmdRead},
		{Subarray: 0, Kind: dram.CommandKind(dram.NumCommandKinds)},
		{Subarray: 0, Kind: dram.CommandKind(-1)},
		{Subarray: 0, Kind: dram.CmdRead, Stage: numStages},
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

// FuzzRecordRoundTrip records a fuzzed command sequence — script byte b is
// one command of kind b&7, and moves to another of eight sub-arrays when bit
// 3 is set and to another stage when bit 4 is, so the sub-array and the
// stage change at fuzzed points, up to every command — optionally starting
// two commands before a kind chunk ends, then one more command {sub, kind,
// stage} that either fits or panics at emission and leaves the stream as it
// was. What was recorded must come back unchanged through Each, Commands and
// Canonical, with Rows derived from Kind, in one segment per run of one
// sub-array and one stage (cut where a chunk ends).
func FuzzRecordRoundTrip(f *testing.F) {
	f.Add(0, 0, uint8(0), []byte(nil), false)
	f.Add(maxSubarray, dram.NumCommandKinds-1, uint8(numStages-1), []byte{0x18, 0x38, 0x58, 0x78}, false)
	f.Add(maxSubarray+1, 0, uint8(0), []byte{1, 2, 3}, true)
	f.Add(-1, int(dram.CmdAAP3), uint8(StageHashmap), []byte{0x0d, 0x2d, 0x4d, 0x0d}, false)
	f.Add(5, dram.NumCommandKinds, uint8(StageInput), []byte{0xff, 0xe7, 0x10, 0x30}, true)
	f.Add(5, -1, uint8(StageInput), []byte{0x04, 0x05, 0x06}, false)
	f.Add(5, int(dram.CmdAAP2), uint8(numStages), []byte{0x3f, 0x3f, 0x5f}, true)
	f.Fuzz(func(t *testing.T, sub, kind int, stage uint8, script []byte, straddle bool) {
		s := NewStream()
		var want []Command
		rec := func(c Command) {
			c.Rows = c.Kind.SourceRows()
			s.Record(c)
			want = append(want, c)
		}
		if straddle {
			for i := 0; i < chunkLen-2; i++ {
				rec(Command{Subarray: 2, Kind: dram.CmdRead, Stage: StageInput})
			}
		}
		cur := Command{Subarray: 3, Stage: StageHashmap}
		for _, b := range script {
			if b&0x08 != 0 {
				cur.Subarray = int(b>>5) * 7
			}
			if b&0x10 != 0 {
				cur.Stage = Stage(int(b>>5) % int(numStages))
			}
			cur.Kind = dram.CommandKind(b & 7)
			rec(cur)
		}

		last := Command{Subarray: sub, Kind: dram.CommandKind(kind), Stage: Stage(stage)}
		fits := sub >= 0 && sub <= maxSubarray && kind >= 0 && kind < dram.NumCommandKinds && Stage(stage) < numStages
		panicked := func() (p bool) {
			defer func() { p = recover() != nil }()
			rec(last)
			return false
		}()
		if panicked == fits {
			t.Fatalf("%+v: fits=%v but Record panicked=%v", last, fits, panicked)
		}

		if s.n != len(want) {
			t.Fatalf("Len %d, recorded %d", s.n, len(want))
		}
		var walked []Command
		s.Each(func(c Command) { walked = append(walked, c) })
		if !reflect.DeepEqual(walked, want) || (len(want) > 0 && !reflect.DeepEqual(s.Commands(), want)) {
			t.Fatal("Each or Commands differs from what was recorded")
		}
		if canon, ref := s.Canonical(), refCanonical(want); len(canon) != len(ref) || (len(ref) > 0 && !reflect.DeepEqual(canon, ref)) {
			t.Fatal("Canonical differs from the reference interleaving")
		}
		wantSegs := 0
		for i, c := range want {
			if i == 0 || i%chunkLen == 0 || c.Subarray != want[i-1].Subarray || c.Stage != want[i-1].Stage {
				wantSegs++
			}
		}
		segs := 0
		s.EachSegment(func(seg Segment) {
			if len(seg.Kinds) == 0 {
				t.Fatal("empty segment")
			}
			segs++
		})
		if segs != wantSegs {
			t.Fatalf("%d segments, want one per run: %d", segs, wantSegs)
		}
	})
}
