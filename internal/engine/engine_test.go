package engine

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"pimassembler/internal/assembly"
	"pimassembler/internal/dram"
	"pimassembler/internal/genome"
	"pimassembler/internal/perfmodel"
	"pimassembler/internal/platforms"
	"pimassembler/internal/stats"
)

// conformanceWorkload is the shared synthetic read set the conformance
// suite runs every registered engine on.
func conformanceWorkload() (*genome.Sequence, []*genome.Sequence) {
	rng := stats.NewRNG(0xE16)
	ref := genome.GenerateGenome(2_000, rng)
	reads := genome.NewReadSampler(ref, 101, 0, rng).Sample(150)
	return ref, reads
}

func conformanceOptions(ref *genome.Sequence) Options {
	return Options{Options: assembly.Options{K: 16}, Subarrays: 16, Ref: ref}
}

// wantNames is the default catalogue in its fixed registration order:
// software, pim, then the seven analytical platforms in the paper's
// comparison order.
var wantNames = []string{
	"software", "pim",
	"cpu", "gpu", "hmc", "ambit", "drisa-1t1c", "drisa-3t1c", "pim-assembler",
}

func TestDefaultRegistryNamesDeterministic(t *testing.T) {
	got := Names()
	if len(got) != len(wantNames) {
		t.Fatalf("registry has %d engines %v, want %d", len(got), got, len(wantNames))
	}
	for i, name := range wantNames {
		if got[i] != name {
			t.Fatalf("Names()[%d] = %q, want %q (full: %v)", i, got[i], name, got)
		}
	}
	// Listing order must be stable across calls and match Engines().
	again := Names()
	engines := Engines()
	for i := range got {
		if again[i] != got[i] {
			t.Fatalf("Names() not deterministic: %v vs %v", got, again)
		}
		if engines[i].Name() != got[i] {
			t.Fatalf("Engines()[%d].Name() = %q, want %q", i, engines[i].Name(), got[i])
		}
	}
}

func TestLookupCaseInsensitiveAndAliases(t *testing.T) {
	for query, want := range map[string]string{
		"SOFTWARE":       "software",
		"Pim":            "pim",
		"pim-functional": "pim",
		"GPU":            "gpu",
		"DRISA-3T1C":     "drisa-3t1c",
		"d3":             "drisa-3t1c",
		"D1":             "drisa-1t1c",
		"P-A":            "pim-assembler",
		"hmc":            "hmc",
	} {
		e, err := Lookup(query)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", query, err)
		}
		if e.Name() != want {
			t.Errorf("Lookup(%q) = %q, want %q", query, e.Name(), want)
		}
	}
}

func TestUnknownEngineErrorListsValidNames(t *testing.T) {
	_, err := Lookup("warp-drive")
	if err == nil {
		t.Fatal("Lookup of unknown engine succeeded")
	}
	for _, name := range wantNames {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("unknown-engine error %q does not list %q", err, name)
		}
	}
}

func TestRegistryRejectsDuplicates(t *testing.T) {
	r := NewRegistry()
	if err := r.Register(softwareEngine{}); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(softwareEngine{}); err == nil {
		t.Error("duplicate canonical name accepted")
	}
	if err := r.Register(pimEngine{}, "Software"); err == nil {
		t.Error("alias colliding with a registered name (case-insensitively) accepted")
	}
}

// TestConformanceAllEngines runs every registered engine on one synthetic
// read set and checks the contract: a populated Report with valid contigs
// and the fields the engine's family promises.
func TestConformanceAllEngines(t *testing.T) {
	ref, reads := conformanceWorkload()
	opts := conformanceOptions(ref)
	ctx := context.Background()

	for _, e := range Engines() {
		e := e
		t.Run(e.Name(), func(t *testing.T) {
			rep, err := e.Assemble(ctx, genome.NewSliceSource(reads), opts)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Engine != e.Name() {
				t.Errorf("Report.Engine = %q, want %q", rep.Engine, e.Name())
			}
			if e.Describe() == "" {
				t.Error("empty Describe()")
			}
			if len(rep.Contigs) == 0 {
				t.Fatal("no contigs")
			}
			for i, c := range rep.Contigs {
				if c.Seq.Len() < opts.K {
					t.Fatalf("contig %d shorter than k (%d < %d)", i, c.Seq.Len(), opts.K)
				}
			}
			if rep.Counts == nil {
				t.Fatal("Counts not populated")
			}
			if err := rep.Counts.Validate(); err != nil {
				t.Fatalf("invalid Counts: %v", err)
			}
			if rep.Quality == nil {
				t.Fatal("Quality not populated despite Options.Ref")
			}
			if rep.Quality.GenomeFraction < 0.5 {
				t.Errorf("genome fraction %.2f suspiciously low", rep.Quality.GenomeFraction)
			}

			switch rep.Family {
			case FamilySoftware:
				if rep.Timings == nil {
					t.Error("software family must populate Timings")
				}
				if rep.Functional != nil || rep.Cost != nil {
					t.Error("software family must leave Functional and Cost nil")
				}
			case FamilyFunctional:
				fn := rep.Functional
				if fn == nil {
					t.Fatal("functional family must populate Functional")
				}
				if fn.Commands <= 0 || fn.SerialLatencyNS <= 0 || fn.EnergyPJ <= 0 {
					t.Errorf("degenerate functional summary: %+v", fn)
				}
				if int64(fn.Histogram.Commands) != fn.Commands {
					t.Errorf("histogram commands %d != meter commands %d",
						fn.Histogram.Commands, fn.Commands)
				}
				if fn.Makespan.MakespanNS <= 0 || fn.Makespan.MakespanNS > fn.SerialLatencyNS*1.0000001 {
					t.Errorf("makespan %.1f ns outside (0, serial %.1f ns]",
						fn.Makespan.MakespanNS, fn.SerialLatencyNS)
				}
				if len(fn.StageCosts) == 0 || len(fn.Stages) == 0 {
					t.Error("per-stage attribution missing")
				}
			case FamilyAnalytical:
				if rep.Cost == nil {
					t.Fatal("analytical family must populate Cost")
				}
				if rep.Cost.TotalS() <= 0 || rep.Cost.PowerW <= 0 {
					t.Errorf("degenerate cost: %+v", rep.Cost)
				}
				if rep.Timings != nil || rep.Functional != nil {
					t.Error("analytical family must leave Timings and Functional nil")
				}
			default:
				t.Fatalf("unknown family %v", rep.Family)
			}
		})
	}
}

// TestSoftwareAndPIMEnginesEmitIdenticalContigs is the cross-engine
// equivalence half of the conformance contract: on noisy reads, every
// pipeline option means the same thing on the functional simulator as on
// the software reference. The pim engine reads a one-pass stream, the
// software engine the slice.
func TestSoftwareAndPIMEnginesEmitIdenticalContigs(t *testing.T) {
	rng := stats.NewRNG(0xE17)
	reads := genome.NewReadSampler(genome.GenerateGenome(2_000, rng), 80, 0.01, rng).Sample(200)
	ctx := context.Background()
	records := make([]genome.Record, len(reads))
	for i, r := range reads {
		records[i] = genome.Record{Name: fmt.Sprintf("r%d", i), Seq: r}
	}
	var fasta bytes.Buffer
	if err := genome.WriteFASTA(&fasta, records); err != nil {
		t.Fatal(err)
	}

	for name, o := range map[string]assembly.Options{
		"default":                   {},
		"mincount":                  {MinCount: 2},
		"simplify":                  {Simplify: true},
		"correct":                   {Correct: true},
		"correct+simplify+mincount": {Correct: true, Simplify: true, MinCount: 2},
		"scaffold":                  {Scaffold: true, MinOverlap: 12},
	} {
		o.K = 16
		opts := Options{Options: o, Subarrays: 16}
		t.Run(name, func(t *testing.T) {
			sw, err := mustLookup(t, "software").Assemble(ctx, genome.NewSliceSource(reads), opts)
			if err != nil {
				t.Fatal(err)
			}
			stream := genome.NewScannerSource(genome.NewScanner(bytes.NewReader(fasta.Bytes()), genome.FormatFASTA))
			pim, err := mustLookup(t, "pim").Assemble(ctx, stream, opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(sw.Contigs) != len(pim.Contigs) {
				t.Fatalf("contig count: software %d, pim %d", len(sw.Contigs), len(pim.Contigs))
			}
			for i := range sw.Contigs {
				if !sw.Contigs[i].Seq.Equal(pim.Contigs[i].Seq) {
					t.Fatalf("contig %d differs between software and pim engines", i)
				}
			}
			if len(sw.Scaffolds) != len(pim.Scaffolds) || (o.Scaffold && len(sw.Scaffolds) == 0) {
				t.Fatalf("scaffold count: software %d, pim %d", len(sw.Scaffolds), len(pim.Scaffolds))
			}
			for i := range sw.Scaffolds {
				if !sw.Scaffolds[i].Seq.Equal(pim.Scaffolds[i].Seq) {
					t.Fatalf("scaffold %d differs between software and pim engines", i)
				}
			}
			if s, p := *sw.Counts, *pim.Counts; s.TotalKmers != p.TotalKmers || s.DistinctKmers != p.DistinctKmers || s.Nodes != p.Nodes || s.Edges != p.Edges {
				t.Fatalf("graph shape: software %+v, pim %+v", s, p)
			}
		})
	}
}

// TestAnalyticalEnginesMatchPerfmodel pins the analytical family to the
// perfmodel figures: pricing the measured counts through the engine must
// reproduce perfmodel.AssemblyCost exactly, for both the measured-run and
// the counts-only paths.
func TestAnalyticalEnginesMatchPerfmodel(t *testing.T) {
	ref, reads := conformanceWorkload()
	opts := conformanceOptions(ref)
	ctx := context.Background()

	sw, err := mustLookup(t, "software").Assemble(ctx, genome.NewSliceSource(reads), opts)
	if err != nil {
		t.Fatal(err)
	}
	counts := *sw.Counts

	for _, spec := range platforms.All() {
		spec := spec
		name := analyticalName(spec)
		t.Run(name, func(t *testing.T) {
			want := perfmodel.AssemblyCost(spec, counts)

			rep, err := mustLookup(t, name).Assemble(ctx, genome.NewSliceSource(reads), opts)
			if err != nil {
				t.Fatal(err)
			}
			if *rep.Cost != want {
				t.Errorf("measured-run cost %+v != perfmodel %+v", *rep.Cost, want)
			}

			only, err := mustLookup(t, name).Assemble(ctx, nil, Options{Counts: &counts})
			if err != nil {
				t.Fatal(err)
			}
			if *only.Cost != want {
				t.Errorf("counts-only cost %+v != perfmodel %+v", *only.Cost, want)
			}
			if only.Contigs != nil {
				t.Error("counts-only run must not fabricate contigs")
			}
		})
	}
}

func TestEstimateAllCoversEveryPlatformInOrder(t *testing.T) {
	_, reads := conformanceWorkload()
	sw, err := mustLookup(t, "software").Assemble(context.Background(), genome.NewSliceSource(reads), Options{Options: assembly.Options{K: 16}})
	if err != nil {
		t.Fatal(err)
	}
	costs := EstimateAll(*sw.Counts)
	specs := platforms.All()
	if len(costs) != len(specs) {
		t.Fatalf("EstimateAll returned %d costs, want %d", len(costs), len(specs))
	}
	for i, c := range costs {
		if c.Platform != specs[i].Name {
			t.Errorf("EstimateAll[%d].Platform = %q, want %q", i, c.Platform, specs[i].Name)
		}
	}
}

func TestEnginesRespectContextCancellation(t *testing.T) {
	_, reads := conformanceWorkload()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, e := range Engines() {
		if _, err := e.Assemble(ctx, genome.NewSliceSource(reads), Options{Options: assembly.Options{K: 16}}); err == nil {
			t.Errorf("engine %s ignored a cancelled context", e.Name())
		}
	}
}

func TestEnginesRejectEmptyInput(t *testing.T) {
	ctx := context.Background()
	for _, e := range Engines() {
		if _, err := e.Assemble(ctx, nil, Options{Options: assembly.Options{K: 16}}); err == nil {
			t.Errorf("engine %s accepted nil reads without counts", e.Name())
		}
	}
}

// TestSubarraysBeyondTheGeometry pins both halves of the bound on the pim
// engine's hash region: Validate rejects a Subarrays the default geometry
// cannot hold beside a sequence bank, and a region that passes Validate but
// does not fit beside the bank this read set needs fails the run with an
// error — as does an unvalidated one — instead of panicking in core.
func TestSubarraysBeyondTheGeometry(t *testing.T) {
	total := dram.Default().TotalSubarrays()
	for _, tc := range []struct {
		subarrays int
		valid     bool
	}{{0, true}, {16, true}, {total - 1, true}, {total, false}, {1 << 30, false}, {-1, false}} {
		opts := Options{Options: assembly.Options{K: 16}, Subarrays: tc.subarrays}
		if err := opts.Validate(); (err == nil) != tc.valid {
			t.Errorf("Subarrays=%d: Validate() = %v, want valid=%v", tc.subarrays, err, tc.valid)
		}
	}
	_, reads := conformanceWorkload()
	pim := mustLookup(t, "pim")
	for _, subarrays := range []int{total - 1, 1 << 30} {
		opts := Options{Options: assembly.Options{K: 16}, Subarrays: subarrays}
		if _, err := pim.Assemble(context.Background(), genome.NewSliceSource(reads), opts); err == nil {
			t.Errorf("Subarrays=%d: pim engine assembled beyond the geometry", subarrays)
		}
	}
}

// TestRegistryConcurrentLookups exercises the registry under the race
// detector: lookups, listings, and registrations from many goroutines.
func TestRegistryConcurrentLookups(t *testing.T) {
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				if _, err := Lookup("drisa-3t1c"); err != nil {
					t.Error(err)
					return
				}
				Names()
				Engines()
			}
		}()
	}
	wg.Wait()
}

func mustLookup(t *testing.T, name string) Engine {
	t.Helper()
	e, err := Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	return e
}
