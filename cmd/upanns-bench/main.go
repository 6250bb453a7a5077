// Command upanns-bench regenerates the paper's evaluation artifacts: every
// table and figure of Section 5, at a configurable scaled-down size, plus
// the ADC kernels' bit-identity and speedup gate. The live serving path is
// measured by the repo benchmark (go run ./benchmark), not here.
//
// Usage:
//
//	upanns-bench [flags] -exp all|table1|intro|fig1|fig4|fig7|fig10|...|fig20|kernels|recall
//
// Examples:
//
//	upanns-bench -exp fig10                # one experiment at defaults
//	upanns-bench -exp all -n 96000 -dpus 64
//	upanns-bench -exp all -quick           # reduced grid for a fast pass
//	upanns-bench -exp kernels -quick -json out -check   # the CI kernel gate
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/bench"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment id or 'all' (ids: "+strings.Join(bench.IDs(), ", ")+")")
		quick   = flag.Bool("quick", false, "use the reduced quick grid")
		n       = flag.Int("n", 0, "base vectors per dataset (0 = default)")
		queries = flag.Int("queries", 0, "queries per batch (0 = default)")
		dpus    = flag.Int("dpus", 0, "simulated DPUs (0 = default)")
		k       = flag.Int("k", 0, "top-k (0 = default)")
		seed    = flag.Uint64("seed", 0, "random seed (0 = default)")
		jsonDir = flag.String("json", "", "directory to write BENCH_<id>.json artifacts into (experiments with machine-readable results)")
		check   = flag.Bool("check", false, "exit non-zero if any artifact reports acceptance-shape violations (the CI regression gate)")
	)
	flag.Parse()

	o := bench.DefaultOptions()
	if *quick {
		o = bench.QuickOptions()
	}
	if *n > 0 {
		o.N = *n
	}
	if *queries > 0 {
		o.Queries = *queries
	}
	if *dpus > 0 {
		o.DPUs = *dpus
	}
	if *k > 0 {
		o.K = *k
	}
	if *seed > 0 {
		o.Seed = *seed
	}

	ctx := bench.NewContext(o)
	var selected []bench.Experiment
	if *exp == "all" {
		selected = bench.All()
	} else {
		for _, id := range strings.Split(*exp, ",") {
			e, ok := bench.Find(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(os.Stderr, "unknown experiment %q; available: all, %s\n",
					id, strings.Join(bench.IDs(), ", "))
				os.Exit(2)
			}
			selected = append(selected, e)
		}
	}

	if *jsonDir != "" {
		if err := os.MkdirAll(*jsonDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "creating artifact dir: %v\n", err)
			os.Exit(1)
		}
	}

	fmt.Printf("UpANNS benchmark harness: N=%d, queries=%d, DPUs=%d, IVF=%v, nprobe=%v, k=%d\n\n",
		o.N, o.Queries, o.DPUs, o.IVFGrid, o.NProbeGrid, o.K)
	var violations []string
	checkedArtifacts := 0
	for _, e := range selected {
		start := time.Now()
		rep, err := e.Run(ctx)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", e.ID, err)
			os.Exit(1)
		}
		fmt.Print(rep.String())
		fmt.Printf("(%s completed in %.1fs)\n\n", e.ID, time.Since(start).Seconds())
		if rep.Artifact == nil {
			continue
		}
		if *jsonDir != "" {
			path := filepath.Join(*jsonDir, "BENCH_"+rep.ID+".json")
			raw, err := json.MarshalIndent(rep.Artifact, "", "  ")
			if err != nil {
				fmt.Fprintf(os.Stderr, "%s: marshaling artifact: %v\n", e.ID, err)
				os.Exit(1)
			}
			if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "%s: writing artifact: %v\n", e.ID, err)
				os.Exit(1)
			}
			fmt.Printf("wrote %s\n\n", path)
		}
		if *check {
			checkedArtifacts++
			violations = append(violations, rep.Artifact.Violations()...)
		}
	}
	if *check {
		if checkedArtifacts == 0 {
			// A gate that verified nothing must not go green.
			fmt.Fprintln(os.Stderr, "-check: none of the selected experiments produce an artifact; nothing was verified")
			os.Exit(1)
		}
		if len(violations) > 0 {
			fmt.Fprintln(os.Stderr, "acceptance-shape violations:")
			for _, v := range violations {
				fmt.Fprintln(os.Stderr, "  - "+v)
			}
			os.Exit(1)
		}
		fmt.Printf("acceptance shapes: OK (%d artifacts checked)\n", checkedArtifacts)
	}
}
