// Command experiments regenerates every table and figure of the paper's
// evaluation (§6) over the synthetic COMPAS-like and DOT-like datasets.
// Each experiment prints the same series the paper plots; absolute times
// differ from the paper's Python-on-2017-laptop numbers, but the shapes
// (scaling in n, d and N; online ≪ ordering; tree ≫ linear scan) are the
// reproduction targets.
//
// Usage:
//
//	go run ./cmd/experiments -exp all          # everything, reduced sizes
//	go run ./cmd/experiments -exp fig18        # one experiment
//	go run ./cmd/experiments -exp fig17 -full  # paper-scale sizes (slow)
//	go run ./cmd/experiments -list
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
)

type experiment struct {
	name string
	desc string
	run  func(cfg config)
}

type config struct {
	full bool // paper-scale sizes (slow) vs reduced defaults
	seed int64
}

var registry []experiment

func register(name, desc string, run func(config)) {
	registry = append(registry, experiment{name, desc, run})
}

func main() {
	exp := flag.String("exp", "", "experiment to run (or 'all')")
	list := flag.Bool("list", false, "list available experiments")
	full := flag.Bool("full", false, "use paper-scale parameters (slow)")
	seed := flag.Int64("seed", 1, "master random seed")
	flag.Parse()

	sort.Slice(registry, func(i, j int) bool { return registry[i].name < registry[j].name })
	if *list || *exp == "" {
		fmt.Println("available experiments:")
		for _, e := range registry {
			fmt.Printf("  %-10s %s\n", e.name, e.desc)
		}
		if !*list {
			os.Exit(2)
		}
		return
	}
	cfg := config{full: *full, seed: *seed}
	if *exp == "all" {
		for _, e := range registry {
			fmt.Printf("\n========== %s — %s ==========\n", e.name, e.desc)
			e.run(cfg)
		}
		return
	}
	for _, e := range registry {
		if e.name == *exp {
			e.run(cfg)
			return
		}
	}
	fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", *exp)
	os.Exit(2)
}
