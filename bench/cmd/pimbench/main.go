// Command pimbench is the repository's benchmark driver.
//
//	pimbench --workload W --seed N --seconds S --trace 0|1
//	    one run of one workload; the last stdout line is the result JSON
//	    (end-to-end metrics with --trace 0, per-layer metrics with --trace 1)
//	pimbench -seed N -out DIR
//	    every workload, each run in its own child process of this binary:
//	    three untraced runs plus one traced replay; writes DIR/result.json
//	    and DIR/trace-<workload>.json
//	pimbench -compare old.json new.json
//	    per workload × end-to-end metric: old, new, delta, bound, verdict;
//	    exits 1 on any regression or rise in failed operations
//	pimbench -manifest
//	    prints what BENCHMARK.json must contain
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"syscall"

	"pimassembler/bench"
)

func main() {
	if worker, err := bench.WorkerMain(); worker {
		if err != nil {
			fmt.Fprintln(os.Stderr, "pimbench worker:", err)
			os.Exit(1)
		}
		return
	}
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("pimbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "run this one workload and print the result line")
	seed := fs.Uint64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", bench.RunSeconds, "how long one run measures")
	trace := fs.Int("trace", 0, "0: untraced end-to-end metrics; 1: traced replay, per-layer metrics")
	traceOut := fs.String("trace-out", "", "with --trace 1: write the Chrome trace JSON here")
	out := fs.String("out", "", "all-workloads mode: directory for result.json and trace-<workload>.json")
	compare := fs.Bool("compare", false, "compare two result.json files: -compare old.json new.json")
	manifest := fs.Bool("manifest", false, "print BENCHMARK.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var err error
	switch {
	case *manifest:
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		err = enc.Encode(bench.Manifest())
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "pimbench: -compare takes two result.json files")
			return 2
		}
		var bad int
		if bad, err = compareFiles(fs.Arg(0), fs.Arg(1)); err == nil && bad > 0 {
			fmt.Printf("%d regression(s)\n", bad)
			return 1
		}
	case *workload != "":
		err = runOne(ctx, bench.Options{
			Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *trace != 0,
			TraceOut: *traceOut, Log: os.Stdout,
		})
	case *out != "":
		err = runAll(ctx, *out, *seed, *seconds)
	default:
		fs.Usage()
		return 2
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "pimbench:", err)
		return 1
	}
	return 0
}

// runOne is the driver's contract: metrics by name on the way, the result
// object as the last line.
func runOne(ctx context.Context, o bench.Options) error {
	res, err := bench.Run(ctx, o)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Printf("%s\n", line)
	return err
}

func compareFiles(oldPath, newPath string) (int, error) {
	old, err := bench.ReadFile(oldPath)
	if err != nil {
		return 0, err
	}
	cur, err := bench.ReadFile(newPath)
	if err != nil {
		return 0, err
	}
	return bench.Compare(os.Stdout, old, cur), nil
}

// untracedRuns is how many end-to-end runs per workload -out makes: the
// fewest that give -compare a median and a spread.
const untracedRuns = 3

// runAll measures every workload, one child process per run so that each
// run's peak RSS and heap are its own.
func runAll(ctx context.Context, dir string, seed uint64, seconds float64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	file := &bench.File{Env: bench.CaptureEnv(), Seed: seed, Seconds: seconds, EndToEnd: bench.EndToEnd}
	fmt.Printf("environment: %+v\nseed %d, %d untraced runs + 1 traced replay per workload, %g s each\n", file.Env, seed, untracedRuns, seconds)
	for _, w := range bench.Workloads {
		fmt.Printf("%-14s sizes %v\n", w.Name, bench.Sizes(w.Name))
	}

	child := func(name string, trace int, extra ...string) (*bench.Result, error) {
		args := append([]string{
			"--workload", name, "--seed", strconv.FormatUint(seed, 10),
			"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
			"--trace", strconv.Itoa(trace),
		}, extra...)
		cmd := exec.CommandContext(ctx, exe, args...)
		var stdout bytes.Buffer
		cmd.Stdout = io.MultiWriter(os.Stdout, &stdout)
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("%s (trace %d): %w", name, trace, err)
		}
		lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
		var res bench.Result
		if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
			return nil, fmt.Errorf("%s (trace %d): result line: %w", name, trace, err)
		}
		return &res, nil
	}

	failed := 0
	for _, w := range bench.Workloads {
		wr := bench.WorkloadResult{
			Name: w.Name, Sizes: bench.Sizes(w.Name),
			EndToEnd: make(map[string][]float64), PerLayer: make(map[string]float64),
		}
		for r := 0; r < untracedRuns; r++ {
			res, err := child(w.Name, 0)
			if err != nil {
				return err
			}
			wr.Attempted += res.Attempted
			wr.Failed += res.Failed
			for name, v := range res.Metrics {
				wr.EndToEnd[name] = append(wr.EndToEnd[name], v.Value)
			}
		}
		tracePath := filepath.Join(dir, "trace-"+w.Name+".json")
		res, err := child(w.Name, 1, "--trace-out", tracePath)
		if err != nil {
			return err
		}
		wr.Attempted += res.Attempted
		wr.Failed += res.Failed
		for name, v := range res.Metrics {
			wr.PerLayer[name] = v.Value
		}
		// Self times come from the file the child wrote, so result.json and
		// the trace a human opens agree.
		spans, err := bench.ReadChrome(tracePath)
		if err != nil {
			return err
		}
		wr.SelfMS = bench.SelfMS(spans)
		failed += wr.Failed
		file.Workloads = append(file.Workloads, wr)
	}
	path := filepath.Join(dir, "result.json")
	if err := file.WriteFile(path); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	if failed > 0 {
		return fmt.Errorf("%d operation(s) failed", failed)
	}
	return nil
}
