// Command sofa-bench regenerates the paper's tables and figures (Section V)
// over the synthetic benchmark: each experiment ID names the figure or table
// it reproduces, plus "approx" for the approximate-search trade-off the
// paper leaves to future work. Speed claims are made with the benchmark
// module in benchmark/, not with this command.
//
// Usage:
//
//	sofa-bench -exp table2            # one experiment
//	sofa-bench -exp all               # the whole suite, paper order
//	sofa-bench -list                  # list experiment IDs
//	sofa-bench -exp fig12 -quick      # reduced datasets/scale for a fast look
//	sofa-bench -exp table2 -queries 100 -cores 6,12,24 -scale 1
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/bench"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment ID (see -list) or 'all'")
		list    = flag.Bool("list", false, "list experiments and exit")
		queries = flag.Int("queries", 0, "queries per dataset (default 20)")
		scale   = flag.Float64("scale", 0, "dataset size multiplier (default 1.0)")
		cores   = flag.String("cores", "", "comma-separated worker sweep, e.g. 6,12,24")
		leaf    = flag.Int("leaf", 0, "tree leaf capacity (default 256)")
		seed    = flag.Int64("seed", 0, "generator seed (default 1)")
		quick   = flag.Bool("quick", false, "reduced 5-dataset suite at 1/4 scale")
	)
	flag.Parse()

	if *list {
		for _, e := range bench.Experiments() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return
	}

	cfg := bench.SuiteConfig{}
	if *quick {
		cfg = bench.Quick()
	}
	if *queries > 0 {
		cfg.Queries = *queries
	}
	if *scale > 0 {
		cfg.Scale = *scale
	}
	if *leaf > 0 {
		cfg.LeafCapacity = *leaf
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	if *cores != "" {
		var cc []int
		for _, part := range strings.Split(*cores, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || v < 1 {
				fmt.Fprintf(os.Stderr, "sofa-bench: bad -cores value %q\n", part)
				os.Exit(2)
			}
			cc = append(cc, v)
		}
		cfg.CoreCounts = cc
	}

	var err error
	if *exp == "all" {
		err = bench.RunAll(cfg, os.Stdout)
	} else {
		err = bench.RunByID(*exp, cfg, os.Stdout)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "sofa-bench: %v\n", err)
		os.Exit(1)
	}
}
