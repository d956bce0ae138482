package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// Env records where a result file was measured, so two files can be told
// apart when their numbers differ.
type Env struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	OS         string `json:"os"`
}

// CaptureEnv reads the environment block. The commit is "unknown" outside a
// git checkout (the PR driver's checkout is not one).
func CaptureEnv() Env {
	e := Env{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   "unknown",
		OS:         runtime.GOOS + "/" + runtime.GOARCH,
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, val, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "model name" {
				e.CPUModel = strings.TrimSpace(val)
				break
			}
		}
	}
	return e
}

// File is result.json: every workload's end-to-end values, one per
// untraced run, and the per-layer values of its traced replay.
type File struct {
	Env       Env              `json:"env"`
	Seed      uint64           `json:"seed"`
	Seconds   float64          `json:"seconds"`
	EndToEnd  []Metric         `json:"end_to_end"`
	Workloads []WorkloadResult `json:"workloads"`
}

// WorkloadResult is one workload's share of a File.
type WorkloadResult struct {
	Name      string               `json:"name"`
	Sizes     map[string]int       `json:"sizes"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	EndToEnd  map[string][]float64 `json:"end_to_end"`
	PerLayer  map[string]float64   `json:"per_layer"`
	SelfMS    map[string]float64   `json:"self_ms"`
}

// ReadFile loads a result.json.
func ReadFile(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// WriteFile stores f as indented JSON.
func (f *File) WriteFile(path string) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Compare prints, per workload × end-to-end metric, the old and new medians,
// the change as a share of the old median, the bound, and a verdict:
//
//	ok          no worse than the bound allows
//	regressed   worse by more than the bound
//	unresolved  the run-to-run spread (quartile distance ÷ median, of either
//	            side) is wider than the bound, so the runs cannot tell —
//	            unless every new run reads better than every old run
//
// When both files used one seed it also lists the exact per-layer counts and
// simulated totals that changed: the inputs were the same, so a change that
// only claims speed must leave them bit-identical. The return value counts
// regressions, workloads whose failed-operation share rose and changed exact
// counts; the caller exits non-zero on any.
func Compare(w io.Writer, old, cur *File) int {
	bad := 0
	curBy := make(map[string]WorkloadResult)
	for _, wr := range cur.Workloads {
		curBy[wr.Name] = wr
	}
	fmt.Fprintf(w, "old: commit %s seed %d   new: commit %s seed %d\n", old.Env.Commit, old.Seed, cur.Env.Commit, cur.Seed)
	fmt.Fprintf(w, "%-14s %-20s %14s %14s %9s %7s  %s\n", "workload", "metric", "old median", "new median", "delta", "bound", "verdict")
	for _, o := range old.Workloads {
		c, ok := curBy[o.Name]
		if !ok {
			fmt.Fprintf(w, "%-14s missing from the new file\n", o.Name)
			bad++
			continue
		}
		for _, m := range cur.EndToEnd {
			ov, cv := o.EndToEnd[m.Name], c.EndToEnd[m.Name]
			if len(ov) == 0 || len(cv) == 0 {
				continue
			}
			om, cm := median(ov), median(cv)
			delta := (cm - om) / om // positive = the number grew
			worse := delta
			if m.Better == "higher" {
				worse = -delta
			}
			verdict := "ok"
			switch {
			case max(spread(ov), spread(cv)) > m.Bound && !allBetter(ov, cv, m.Better):
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "regressed"
				bad++
			}
			fmt.Fprintf(w, "%-14s %-20s %14.4f %14.4f %+8.2f%% %6.0f%%  %s (%s, of old %.4f %s)\n",
				o.Name, m.Name, om, cm, 100*delta, 100*m.Bound, verdict, m.Better+" is better", om, m.Unit)
		}
		oldShare := float64(o.Failed) / float64(max(o.Attempted, 1))
		newShare := float64(c.Failed) / float64(max(c.Attempted, 1))
		verdict := "ok"
		if newShare > oldShare {
			verdict = "regressed"
			bad++
		}
		fmt.Fprintf(w, "%-14s %-20s %14.4f %14.4f %27s (failed %d of %d, was %d of %d)\n",
			o.Name, "fail_share", oldShare, newShare, verdict, c.Failed, c.Attempted, o.Failed, o.Attempted)

		if old.Seed != cur.Seed {
			continue // other inputs: the counts may differ
		}
		for _, pm := range PerLayer {
			if exactLayer[pm.Name] && o.PerLayer[pm.Name] != c.PerLayer[pm.Name] {
				fmt.Fprintf(w, "%-14s %-36s exact count changed: %v -> %v %s\n", o.Name, pm.Name, o.PerLayer[pm.Name], c.PerLayer[pm.Name], pm.Unit)
				bad++
			}
		}
	}
	return bad
}

// spread is the distance between the first and third quartile as a share of
// the median (0 for fewer than two runs: one run has no spread to show).
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := median(xs)
	if m == 0 {
		return 0
	}
	return (quantile(xs, 0.75) - quantile(xs, 0.25)) / m
}

// allBetter reports whether every new run reads better than every old run.
func allBetter(old, cur []float64, better string) bool {
	if better == "higher" {
		return quantile(cur, 0) > quantile(old, 1)
	}
	return quantile(cur, 1) < quantile(old, 0)
}
