package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestMain lets the dist_60k workload re-exec the test binary as its
// distshard worker, exactly as pimbench re-execs itself.
func TestMain(m *testing.M) {
	if worker, err := WorkerMain(); worker {
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench worker:", err)
			os.Exit(1)
		}
		return
	}
	os.Exit(m.Run())
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// TestManifestMatchesFile pins BENCHMARK.json to the tables in spec.go and
// the tables to the driver's limits.
func TestManifestMatchesFile(t *testing.T) {
	want, err := json.MarshalIndent(Manifest(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bytes.TrimSpace(got), want) {
		t.Errorf("BENCHMARK.json differs from Manifest(); regenerate it with: go run ./cmd/pimbench -manifest > ../BENCHMARK.json")
	}

	if n := len(Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	seen := make(map[string]bool)
	check := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q outside the allowed alphabet or length", name)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	setup := false
	for _, w := range Workloads {
		check(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
		if _, ok := impls[w.Name]; !ok {
			t.Errorf("workload %s has no implementation", w.Name)
		}
	}
	for _, m := range EndToEnd {
		check(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	for _, m := range append(append([]Metric(nil), EndToEnd...), PerLayer...) {
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q not allowed", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
	}
	for _, m := range PerLayer {
		check(m.Name)
	}
	for name := range exactLayer {
		if !seen[name] {
			t.Errorf("exactLayer names %q, which PerLayer does not list", name)
		}
	}
}

// TestWorkloadsSmallScale runs every workload at 1/50 scale in both modes
// and checks what the driver and -compare rely on: the emitted names are
// exactly the manifest's, outputs verify, spans nest, the trace file round
// trips, and a result compared with itself is all ok.
func TestWorkloadsSmallScale(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all five workloads; skipped under -short")
	}
	dir := t.TempDir()
	file := &File{Env: CaptureEnv(), Seed: 7, EndToEnd: EndToEnd}
	for _, w := range Workloads {
		wr := WorkloadResult{Name: w.Name, Sizes: Sizes(w.Name), EndToEnd: map[string][]float64{}, PerLayer: map[string]float64{}}
		for _, trace := range []bool{false, true} {
			tracePath := filepath.Join(dir, "trace-"+w.Name+".json")
			res, err := Run(context.Background(), Options{
				Workload: w.Name, Seed: 7, Seconds: 0.2, Trace: trace, Scale: 50, TmpDir: dir, TraceOut: tracePath,
			})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := EndToEnd
			if trace {
				want = PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics emitted, manifest lists %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				v, ok := res.Metrics[m.Name]
				if !ok || v.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s missing or unit %q != %q", w.Name, trace, m.Name, v.Unit, m.Unit)
				}
				if !trace && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, m.Name, v.Value)
				}
				if trace {
					wr.PerLayer[m.Name] = v.Value
				} else {
					wr.EndToEnd[m.Name] = []float64{v.Value}
				}
			}
			wr.Attempted += res.Attempted
			wr.Failed += res.Failed
			if !trace {
				continue
			}
			if wr.PerLayer["trace.spans"] < 2 {
				t.Errorf("%s: traced replay recorded %v spans", w.Name, wr.PerLayer["trace.spans"])
			}
			spans, err := ReadChrome(tracePath)
			if err != nil {
				t.Fatal(err)
			}
			if float64(len(spans)) != wr.PerLayer["trace.spans"] {
				t.Errorf("%s: trace file holds %d spans, the run recorded %v", w.Name, len(spans), wr.PerLayer["trace.spans"])
			}
			ids := make(map[int]Span)
			for _, s := range spans {
				ids[s.ID] = s
			}
			for _, s := range spans {
				if s.EndNS < s.StartNS || s.Workload != w.Name || s.Layer == "" {
					t.Errorf("%s: malformed span %+v", w.Name, s)
				}
				if p, ok := ids[s.Parent]; s.Parent >= 0 && (!ok || p.StartNS > s.StartNS || p.EndNS < s.EndNS) {
					t.Errorf("%s: span %d (%s) has no enclosing parent %d", w.Name, s.ID, s.Name, s.Parent)
				}
			}
		}
		file.Workloads = append(file.Workloads, wr)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !strings.HasPrefix(e.Name(), "trace-") {
			t.Errorf("run left %s behind in its temp dir", e.Name())
		}
	}

	path := filepath.Join(dir, "result.json")
	if err := file.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if bad := Compare(&out, back, back); bad != 0 || strings.Contains(out.String(), "regressed") || strings.Contains(out.String(), "unresolved") {
		t.Errorf("a file compared with itself reports %d regressions:\n%s", bad, out.String())
	}
	if rows := strings.Count(out.String(), " ok "); rows < len(Workloads)*len(EndToEnd) {
		t.Errorf("compare printed %d ok rows, want at least %d:\n%s", rows, len(Workloads)*len(EndToEnd), out.String())
	}
}

// TestCompareVerdicts pins the three verdicts and the exit signal.
func TestCompareVerdicts(t *testing.T) {
	mk := func(op []float64, failed int) *File {
		return &File{Seed: 1, EndToEnd: EndToEnd, Workloads: []WorkloadResult{{
			Name: "sw_100k", Attempted: 10, Failed: failed,
			EndToEnd: map[string][]float64{"op_ms": op, "reads_per_s": {100, 101, 102}},
			PerLayer: map[string]float64{"kmer.distinct": 5},
		}}}
	}
	old := mk([]float64{100, 101, 102}, 0)
	for _, c := range []struct {
		name    string
		cur     *File
		bad     int
		verdict string
	}{
		{"same", mk([]float64{101, 100, 102}, 0), 0, " ok "},
		{"slower than the bound", mk([]float64{140, 141, 142}, 0), 1, "regressed"},
		{"too noisy to tell", mk([]float64{60, 101, 190}, 0), 0, "unresolved"},
		{"noisy but every run better", mk([]float64{40, 60, 90}, 0), 0, " ok "},
		{"more failures", mk([]float64{100, 101, 102}, 1), 1, "regressed"},
	} {
		var out bytes.Buffer
		if bad := Compare(&out, old, c.cur); bad != c.bad || !strings.Contains(out.String(), c.verdict) {
			t.Errorf("%s: %d regressions, want %d and a %q row:\n%s", c.name, bad, c.bad, c.verdict, out.String())
		}
	}
	changed := mk([]float64{100, 101, 102}, 0)
	changed.Workloads[0].PerLayer["kmer.distinct"] = 6
	var out bytes.Buffer
	if bad := Compare(&out, old, changed); bad != 1 || !strings.Contains(out.String(), "exact count changed") {
		t.Errorf("a changed exact count on one seed: %d regressions, want 1 and an \"exact count changed\" row:\n%s", bad, out.String())
	}
	changed.Seed = 2
	out.Reset()
	if bad := Compare(&out, old, changed); bad != 0 || strings.Contains(out.String(), "exact count changed") {
		t.Errorf("exact counts of different seeds must not be compared: %d regressions:\n%s", bad, out.String())
	}
}

// TestSelfTimeUsesUnionOfChildren pins the self-time rule for concurrent
// children: they cover their union, not their sum.
func TestSelfTimeUsesUnionOfChildren(t *testing.T) {
	spans := []Span{
		{ID: 0, Name: "op", Layer: "a", StartNS: 0, EndNS: 100e6, Parent: -1},
		{ID: 1, Name: "x", Layer: "b", StartNS: 10e6, EndNS: 60e6, Parent: 0},
		{ID: 2, Name: "y", Layer: "b", StartNS: 30e6, EndNS: 80e6, Parent: 0},
		{ID: 3, Name: "side", Layer: "c", Op: -1, StartNS: 0, EndNS: 50e6, Parent: -1},
	}
	self := SelfMS(spans)
	if self["a"] != 30 || self["b"] != 100 || self["c"] != 0 {
		t.Errorf("self times %v, want a=30 (100 minus the 70 ms union), b=100, c left out", self)
	}
}
