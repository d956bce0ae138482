// Command pimassembler is the experiment driver: it regenerates every table
// and figure of the paper's evaluation as text tables (see DESIGN.md §3 for
// the experiment index).
//
// Usage:
//
//	pimassembler fig2b     # SA inverter VTCs and detector truth table
//	pimassembler fig3a     # transient simulation of in-memory XNOR2
//	pimassembler fig3b     # raw bulk-op throughput, 7 platforms
//	pimassembler table1    # Monte-Carlo process-variation sweep
//	pimassembler area      # chip-area overhead accounting
//	pimassembler fig9      # genome-pipeline execution time and power
//	pimassembler fig10     # power/delay vs parallelism degree
//	pimassembler fig11     # memory-bottleneck and utilization ratios
//	pimassembler faults    # Table I rates injected into the pipeline
//	pimassembler stream    # per-stage command histogram + makespan + energy
//	pimassembler engines   # cross-engine comparison over the engine registry
//	pimassembler all       # everything, in order
//
// Exit codes: 0 on success, 2 on usage errors (bad flags, unknown
// experiment, CSV for an experiment without a CSV form).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"pimassembler/internal/eval"
	"pimassembler/internal/parallel"
)

// Exit codes, documented in -h output.
const (
	exitOK    = 0
	exitUsage = 2
)

var runners = map[string]func(io.Writer){
	"fig2b":   eval.RenderFig2b,
	"fig3a":   eval.RenderFig3a,
	"fig3b":   eval.RenderFig3b,
	"table1":  eval.RenderTableI,
	"area":    eval.RenderArea,
	"fig9":    eval.RenderFig9,
	"fig10":   eval.RenderFig10,
	"fig11":   eval.RenderFig11,
	"faults":  eval.RenderFaultStudy,
	"ksweep":  eval.RenderKSweep,
	"sens":    eval.RenderSensitivity,
	"stream":  eval.RenderStream,
	"engines": eval.RenderEngines,
	"all":     eval.RenderAll,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable main: parse args, render, and return the process exit
// code. Every failure path prints a one-line message to stderr.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pimassembler", flag.ContinueOnError)
	fs.SetOutput(stderr)
	asCSV := fs.Bool("csv", false, "emit the experiment as CSV (fig3b, table1, fig9, fig10, fig11, ksweep)")
	workers := fs.Int("workers", 0, "worker count for the parallel evaluation stages (0 = GOMAXPROCS); any value yields bit-identical output")
	fs.Usage = func() { usage(stderr) }
	if err := fs.Parse(args); err != nil {
		// The FlagSet already printed the one-line error and usage.
		return exitUsage
	}
	parallel.SetWorkers(*workers)
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "pimassembler: exactly one experiment name expected")
		usage(stderr)
		return exitUsage
	}
	name := fs.Arg(0)
	if *asCSV {
		if err := eval.WriteCSV(name, stdout); err != nil {
			fmt.Fprintln(stderr, "pimassembler:", err)
			usage(stderr)
			return exitUsage
		}
		return exitOK
	}
	render, ok := runners[name]
	if !ok {
		fmt.Fprintf(stderr, "pimassembler: unknown experiment %q\n", name)
		usage(stderr)
		return exitUsage
	}
	render(stdout)
	return exitOK
}

func usage(w io.Writer) {
	fmt.Fprintln(w, "usage: pimassembler [-csv] [-workers N] <experiment>")
	fmt.Fprintln(w, "experiments: fig2b fig3a fig3b table1 area fig9 fig10 fig11 faults ksweep sens stream engines all")
	fmt.Fprintln(w, "exit codes: 0 success; 2 usage error (bad flag, unknown experiment, no CSV form)")
}
