// Command stallbench reproduces the paper's tables and figures, and
// benchmarks the job service, coordinator mode and result memoization.
//
//	stallbench -list
//	stallbench -run fig2
//	stallbench -run all -parallel 8 -scale 0.01 > results.txt
//	stallbench -bench3 -bench3-out BENCH_3.json
//	stallbench -bench4 -bench4-out BENCH_4.json
//	stallbench -bench5 -bench5-out BENCH_5.json
//	stallbench -run all -cpuprofile cpu.pprof -memprofile mem.pprof
//
// Each experiment prints a paper-style table plus the published result it
// reproduces; -scale trades fidelity margin for runtime (1.0 = paper-sized
// datasets). With -run all the suite fans out across -parallel workers via
// the shared orchestrator; output stays in experiment ID order (and is
// byte-identical for any -parallel at a given -seed), with per-experiment
// wall clocks reported on stderr.
//
// -bench3 measures the stallserved HTTP job service end to end: the POST
// /v1/jobs submit -> worker -> terminal-status round trip for a small job,
// and aggregate /events fan-out delivery throughput at 1/4/16 concurrent
// NDJSON subscribers (plus the raw Broadcaster data structure without
// HTTP), written as JSON to -bench3-out (BENCH_3.json).
//
// -bench4 measures distributed mode: one 8-cell spec grid run on a plain
// single-node server, then scattered by a coordinator across 1/2/4
// in-process stallserved workers (real HTTP via httptest listeners), each
// fleet's gathered report byte-checked against the single-node one before
// its cases/sec counts, written as JSON to -bench4-out (BENCH_4.json).
//
// -bench5 measures result memoization: the fig5+fig9a+fig18 suite cold
// then warm against a content-addressed cache (the warm rerun must
// simulate nothing and render identical output), and a 100-case sweep run
// against a cache primed with 90% of its grid — whose wall should track
// the 10 fresh cells, not the 100-cell grid — written as JSON to
// -bench5-out (BENCH_5.json).
//
// -cpuprofile/-memprofile write pprof profiles of whatever work the other
// flags select — the profiling workflow behind every hot-path PR
// (`make profile` bundles the common invocation).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"datastall"
)

func main() { os.Exit(run()) }

func run() int {
	list := flag.Bool("list", false, "list available experiments")
	runID := flag.String("run", "", "experiment id to run, or 'all'")
	scale := flag.Float64("scale", 0, "dataset scale (0 = per-experiment default)")
	epochs := flag.Int("epochs", 0, "epochs per training run (0 = default 3)")
	seed := flag.Int64("seed", 0, "simulation seed")
	parallel := flag.Int("parallel", 0, "workers for -run all (0 = one per CPU)")
	bench3 := flag.Bool("bench3", false, "benchmark the HTTP job service (submit latency, event fan-out)")
	bench3Out := flag.String("bench3-out", "BENCH_3.json", "output file for -bench3 results")
	bench4 := flag.Bool("bench4", false, "benchmark coordinator-mode case throughput at 1/2/4 fleet workers")
	bench4Out := flag.String("bench4-out", "BENCH_4.json", "output file for -bench4 results")
	bench5 := flag.Bool("bench5", false, "benchmark result memoization: warm suite reruns and 90%-overlap sweeps")
	bench5Out := flag.String("bench5-out", "BENCH_5.json", "output file for -bench5 results")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write an allocation profile to this file on exit")
	flag.Parse()

	// SIGINT/SIGTERM cancel the context; the simulations poll it, so an
	// interrupted run dies cleanly (profiles still flush via the defers).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "stallbench: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "stallbench: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "stallbench: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintf(os.Stderr, "stallbench: %v\n", err)
			}
		}()
	}

	switch {
	case *list:
		fmt.Printf("%-18s %s\n", "ID", "TITLE")
		for _, e := range datastall.Experiments() {
			fmt.Printf("%-18s %s\n", e.ID, e.Title)
			fmt.Printf("%-18s   paper: %s\n", "", e.Paper)
		}
		return 0
	case *bench3:
		return runBench3(*bench3Out)
	case *bench4:
		return runBench4(*bench4Out)
	case *bench5:
		return runBench5(*bench5Out)
	case *runID == "all":
		return runAll(ctx, *scale, *epochs, *seed, *parallel)
	case *runID != "":
		return runOne(ctx, *runID, *scale, *epochs, *seed)
	default:
		flag.Usage()
		return 2
	}
}

// runAll fans the whole registry across the suite orchestrator.
func runAll(ctx context.Context, scale float64, epochs int, seed int64, parallel int) int {
	rep, err := datastall.RunSuite(ctx, datastall.SuiteOptions{
		Scale: scale, Epochs: epochs, Seed: seed, Parallel: parallel,
		Progress: func(e datastall.SuiteExperiment) {
			fmt.Fprintf(os.Stderr, "stallbench: %-18s %-6s (%.2fs)\n", e.ID, e.Status, e.WallSeconds)
		},
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "stallbench: %v\n", err)
		return 1
	}
	for _, e := range rep.Experiments {
		fmt.Printf("%s\n", e)
	}
	if rep.Failed > 0 {
		return 1
	}
	return 0
}

func runOne(ctx context.Context, id string, scale float64, epochs int, seed int64) int {
	start := time.Now()
	rep, err := datastall.RunExperiment(ctx, id, datastall.ExperimentOptions{
		Scale: scale, Epochs: epochs, Seed: seed,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "stallbench: %v\n", err)
		return 1
	}
	fmt.Printf("%s\n", rep)
	fmt.Fprintf(os.Stderr, "stallbench: %s done in %.2fs\n", id, time.Since(start).Seconds())
	return 0
}
