// Command benchmark is the repository's benchmark: four workloads over the
// live serving path, eight end-to-end metrics each, and a per-layer
// latency budget from a traced replay. See README.md in this directory.
//
//	go run ./benchmark                         every workload, full report
//	go run ./benchmark -workload mixed_single  one workload
//	go run ./benchmark -seed 7 -out held.json  a held-out seed, numbers kept
//	go run ./benchmark -compare a.json b.json  diff two reports
//
// The driver's form is `--workload W --seed N --seconds S --trace 0|1`; it
// prints the same tables and then one JSON object as the last line.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
)

// options are the command line.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	repeat   int
	out      string
	spans    string
	tmp      string
	compare  bool
	args     []string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload (default: all four)")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed: shapes the generated vectors, ids and filters, nothing in the program")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of the measured, untraced window")
	flag.IntVar(&o.trace, "trace", -1, "driver mode: 0 = end-to-end metrics only, 1 = per-layer metrics only (default: both)")
	flag.IntVar(&o.repeat, "repeat", 1, "runs per workload; -out keeps every value, -compare reads their spread")
	flag.StringVar(&o.out, "out", "", "write the numbers as JSON to this file")
	flag.StringVar(&o.spans, "spans", "", "write the traced run's spans as JSON to this file")
	flag.StringVar(&o.tmp, "tmp", ".bench_build/tmp", "directory for tiered_cold's epoch image files")
	flag.BoolVar(&o.compare, "compare", false, "compare two -out files: -compare a.json b.json")
	flag.Parse()
	o.args = flag.Args()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	if o.compare {
		if len(o.args) != 2 {
			return fmt.Errorf("-compare wants two report files")
		}
		a, err := readReport(o.args[0])
		if err != nil {
			return err
		}
		b, err := readReport(o.args[1])
		if err != nil {
			return err
		}
		if n := compare(os.Stdout, a, b); n > 0 {
			return fmt.Errorf("%d regression(s)", n)
		}
		return nil
	}

	names := workloadNames
	if o.workload != "" {
		known := false
		for _, name := range workloadNames {
			known = known || name == o.workload
		}
		if !known {
			return fmt.Errorf("unknown workload %q (have %v)", o.workload, workloadNames)
		}
		names = []string{o.workload}
	}
	if o.trace >= 0 && len(names) != 1 {
		return fmt.Errorf("-trace 0|1 is the driver's form and needs -workload")
	}
	if o.seconds <= 0 || o.repeat < 1 || o.trace > 1 {
		return fmt.Errorf("-seconds must be positive, -repeat at least 1, -trace 0 or 1")
	}

	// Callers that each wait for a reply (a RAG pipeline, the router) make
	// a closed loop; a handful of them is what a 2-4 core sandbox can host
	// next to the program.
	clients := min(runtime.NumCPU(), 4)
	rep := newReport(o.seed, o.seconds, o.repeat, fullScale, clients)
	var last *runResult
	incorrect := 0
	for _, name := range names {
		for r := 0; r < o.repeat; r++ {
			res, err := runWorkload(runOpts{
				Workload: name, Seed: o.seed, Seconds: o.seconds,
				E2E: o.trace != 1, Trace: o.trace != 0,
				Scale: fullScale, Clients: clients, TmpRoot: o.tmp,
			})
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			printResult(os.Stdout, res, clients)
			if !res.correct() {
				incorrect++
				fmt.Printf("  !! %s: correctness violation (failed=%d, must-be-zero counters above)\n", name, res.Failed)
			}
			rep.add(res)
			last = res
		}
	}
	if o.out != "" {
		if err := rep.writeFile(o.out); err != nil {
			return err
		}
	}
	if o.spans != "" && last.Spans != nil {
		if err := last.Spans.writeFile(o.spans); err != nil {
			return err
		}
	}
	if o.trace >= 0 {
		fmt.Println(contractLine(last, o.trace == 1))
	}
	if incorrect > 0 {
		return fmt.Errorf("%d run(s) violated correctness", incorrect)
	}
	return nil
}
