// Command experiments regenerates every table and figure of the paper's
// evaluation, printing paper-versus-measured tables and text renderings
// of the figure series.
//
// Usage:
//
//	experiments [-run all|table1|figure6|figure7|scaling|ablations]
//	            [-iterations N] [-seed S] [-csv] [-workers N] [-cachestats]
//
// With -csv the figure series are additionally printed as CSV blocks for
// plotting. All simulation grids run on one shared engine: the cells
// fan out over -workers concurrent simulations (default GOMAXPROCS)
// and design-time analyses are computed once and reused across every
// figure and ablation; -cachestats prints the cache counters at exit.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"drhwsched/internal/engine"
	"drhwsched/internal/experiments"
	"drhwsched/internal/stats"
)

// experimentNames are the accepted -run values.
const experimentNames = "all|table1|figure6|figure7|scaling|ablations"

func main() {
	var (
		which      = flag.String("run", "all", "experiment to run: "+experimentNames)
		iterations = flag.Int("iterations", 1000, "simulation iterations per data point (paper: 1000)")
		seed       = flag.Int64("seed", 2005, "random seed")
		csv        = flag.Bool("csv", false, "also print figure series as CSV")
		workers    = flag.Int("workers", 0, "concurrent simulations (0: GOMAXPROCS)")
		cacheStats = flag.Bool("cachestats", false, "print analysis-cache statistics at exit")
	)
	flag.Parse()
	if !slices.Contains(strings.Split(experimentNames, "|"), *which) {
		fmt.Fprintf(os.Stderr, "experiments: unknown -run %q (use %s)\n", *which, experimentNames)
		os.Exit(2)
	}

	eng := engine.New(engine.Config{Workers: *workers})
	opt := experiments.FigureOptions{Iterations: *iterations, Seed: *seed, Engine: eng}
	run := func(name string, f func() error) {
		if *which != "all" && *which != name {
			return
		}
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", name, err)
			os.Exit(1)
		}
	}

	run("table1", func() error {
		_, tab, err := experiments.Table1()
		if err != nil {
			return err
		}
		fmt.Println("=== Table 1: multimedia benchmarks (4 ms loads, no reuse) ===")
		fmt.Println(tab)
		return nil
	})

	printSeries := func(title string, s *stats.Series) {
		fmt.Println("===", title, "===")
		fmt.Println(s.Table())
		for _, line := range []string{"run-time", "run-time+inter-task", "hybrid"} {
			fmt.Println(stats.AsciiChart(s, line, 50))
		}
		if *csv {
			fmt.Println(s.CSV())
		}
	}

	run("figure6", func() error {
		s, err := experiments.Figure6(opt)
		if err != nil {
			return err
		}
		printSeries(fmt.Sprintf("Figure 6: multimedia mix, overhead %% vs tiles (%d iterations)", *iterations), s)
		return nil
	})

	run("figure7", func() error {
		s, err := experiments.Figure7(opt)
		if err != nil {
			return err
		}
		printSeries(fmt.Sprintf("Figure 7: Pocket GL 3D renderer, overhead %% vs tiles (%d iterations)", *iterations), s)
		return nil
	})

	run("scaling", func() error {
		_, tab, err := experiments.SchedulerScaling(nil, *seed)
		if err != nil {
			return err
		}
		fmt.Println("=== §4 scalability: run-time scheduling cost vs graph size ===")
		fmt.Println(tab)
		return nil
	})

	run("ablations", func() error {
		small := opt
		if small.Iterations > 200 {
			small.Iterations = 200
		}
		tab, err := experiments.AblationReplacement(small)
		if err != nil {
			return err
		}
		fmt.Println("=== Ablation A1: replacement policy (multimedia, 8 tiles, hybrid) ===")
		fmt.Println(tab)

		tab, err = experiments.AblationInterTask(small)
		if err != nil {
			return err
		}
		fmt.Println("=== Ablation A2: inter-task optimization ===")
		fmt.Println(tab)

		tab, err = experiments.AblationOptimality(60, *seed)
		if err != nil {
			return err
		}
		fmt.Println("=== Ablation A3: list heuristic vs branch&bound ===")
		fmt.Println(tab)

		tab, err = experiments.AblationPlacement()
		if err != nil {
			return err
		}
		fmt.Println("=== Ablation A4: spread vs pack placement ===")
		fmt.Println(tab)

		s, err := experiments.LatencySweep(small)
		if err != nil {
			return err
		}
		fmt.Println("=== Ablation A5: reconfiguration latency sweep (Pocket GL, 5 tiles) ===")
		fmt.Println("(latency in µs per load; coarse-grain arrays reconfigure faster)")
		fmt.Println(s.Table())

		s, err = experiments.PortSweep(small)
		if err != nil {
			return err
		}
		fmt.Println("=== Ablation A6: reconfiguration controllers (multimedia, 8 tiles) ===")
		fmt.Println(s.Table())

		tab, err = experiments.SchedulerCostImpact(small)
		if err != nil {
			return err
		}
		fmt.Println("=== Ablation A7: modelled run-time scheduler cost ===")
		fmt.Println(tab)
		return nil
	})

	if *cacheStats {
		st := eng.CacheStats()
		fmt.Printf("analysis cache: %d hits, %d misses (%.0f%% hit rate), %d entries, %d evictions\n",
			st.Hits, st.Misses, 100*st.HitRate(), st.Entries, st.Evictions)
	}
}
