// Command optimus-sim regenerates the paper's tables and figures from the
// reproduction: pass one or more experiment IDs (fig11, table2, ...) or
// "all". Every exhibit runs at the paper's scale (all 28 in under a second
// on 2 cores); -seed varies randomness.
//
// Usage:
//
//	optimus-sim [-seed N] [-parallel N] all
//	optimus-sim fig11 table3
//	optimus-sim -faults faults.txt failures
//	optimus-sim -cpuprofile cpu.pprof -memprofile mem.pprof fig11
//	optimus-sim -list
//
// -parallel bounds the worker pool that fans independent simulator runs
// across cores (0 = GOMAXPROCS, 1 = serial); any setting produces the same
// tables for the same seed. -faults replays a chaos schedule file (see
// optimus-trace faults) in the failures exhibit instead of its generated
// one. -cpuprofile/-memprofile write pprof profiles of the run so hot-path
// work stays evidence-driven.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"optimus/internal/chaos"
	"optimus/internal/experiments"
)

func main() {
	seed := flag.Int64("seed", 1, "random seed")
	list := flag.Bool("list", false, "list experiment IDs and exit")
	parallel := flag.Int("parallel", 0,
		"worker-pool width for independent simulator runs (0 = GOMAXPROCS, 1 = serial)")
	faultsFile := flag.String("faults", "", "chaos schedule file for the failures exhibit")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write an allocation profile to this file")
	flag.Parse()

	if *list {
		fmt.Println(strings.Join(experiments.IDs(), "\n"))
		return
	}
	args := flag.Args()
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "usage: optimus-sim [-seed N] [-parallel N] <experiment-id>... | all")
		fmt.Fprintln(os.Stderr, "experiments:", strings.Join(experiments.IDs(), " "))
		os.Exit(2)
	}
	ids := args
	if len(args) == 1 && args[0] == "all" {
		ids = experiments.IDs()
	}
	opt := experiments.Options{Seed: *seed, Parallel: *parallel}
	if *faultsFile != "" {
		f, err := os.Open(*faultsFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		sched, err := chaos.ParseSchedule(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", *faultsFile, err)
			os.Exit(1)
		}
		opt.Faults = &sched
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		defer pprof.StopCPUProfile()
	}

	workers := *parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	start := time.Now()
	runsBefore := experiments.RunCount()
	failed := false
	for _, id := range ids {
		tbl, err := experiments.Run(id, opt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", id, err)
			failed = true
			continue
		}
		tbl.Print(os.Stdout)
	}
	fmt.Fprintf(os.Stderr, "optimus-sim: %d experiment(s), %d simulator run(s), %d worker(s), %s wall-clock\n",
		len(ids), experiments.RunCount()-runsBefore, workers,
		time.Since(start).Round(time.Millisecond))

	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		runtime.GC()
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		f.Close()
	}

	if failed {
		os.Exit(1)
	}
}
