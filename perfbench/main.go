// Command perfbench is the repository's benchmark: one program that runs a
// named workload against the datastall library facade, the spec sweep path
// or the HTTP job service, checks every output against a reference, and
// prints each metric by name with its unit and sample count. The last line
// of standard output is one JSON object:
//
//	{"correct": true, "attempted": 12, "failed": 0, "metrics": {...}}
//
// With --trace 0 it carries the end-to-end metrics of BENCHMARK.json; with
// --trace 1 the per-layer metrics, measured in a run that also records the
// benchmark's own spans around every layer call into a Chrome trace.
//
// Build and run it from the repository root with perfbench/run.sh; see
// perfbench/README.md for the workloads and how to read the numbers.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"datastall/internal/obs"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	root     string
	// small shrinks the paper-sweep dataset and the fleet grid to the
	// self-test size; every recorded number uses the full size.
	small bool
	// corrupt names an output check whose reference is deliberately
	// damaged, so the self-test can prove that the check catches it.
	corrupt string
	// record rewrites the paper-sweep reference from this run's output.
	record bool
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var seconds, trace int
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+workloadNames())
	fs.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed generates the same inputs")
	fs.IntVar(&seconds, "seconds", 20, "how long the timed phase runs")
	fs.IntVar(&trace, "trace", 0, "1: traced run that reports the per-layer metrics")
	fs.StringVar(&o.root, "root", ".", "repository root (holds go.mod and testdata/)")
	size := fs.String("size", "full", "full or small (the self-test size)")
	fs.StringVar(&o.corrupt, "corrupt", "", "damage the reference of one output check (self-test)")
	fs.BoolVar(&o.record, "record", false, "rewrite the paper-sweep reference from this run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if seconds < 1 || (trace != 0 && trace != 1) || (*size != "full" && *size != "small") {
		fmt.Fprintln(stderr, "perfbench: need --seconds >= 1, --trace 0|1 and --size full|small")
		return 2
	}
	o.seconds = time.Duration(seconds) * time.Second
	o.trace = trace == 1
	o.small = *size == "small"
	res, err := runWorkload(context.Background(), o, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	res.print(stdout, o.trace)
	return 0
}

// A run builds its workload at least minSetups times and until setupBudget
// is spent (at most maxSetups times); setup_s is the median, and the last
// build is the one measured.
const (
	minSetups   = 5
	maxSetups   = 200
	setupBudget = 100 * time.Millisecond
)

// runWorkload sets one workload up, measures it and checks its outputs.
func runWorkload(ctx context.Context, o options, log io.Writer) (*result, error) {
	setup, ok := workloads[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %s)", o.workload, workloadNames())
	}
	for _, need := range []string{"go.mod", "testdata/golden-suite.json", "testdata/specs/cache-sweep.json"} {
		if _, err := os.Stat(filepath.Join(o.root, need)); err != nil {
			return nil, fmt.Errorf("not a repository root: %v", err)
		}
	}
	scratch := filepath.Join(o.root, ".bench_build", "perfbench", fmt.Sprintf("%s-%d", o.workload, os.Getpid()))
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)

	r := &runner{o: o, log: log, res: newResult(o.workload)}
	if o.trace {
		r.tracer = obs.NewTracer("perfbench", "")
		r.root = r.tracer.Start("bench.run")
		r.root.SetAttr("workload", o.workload)
	}
	var inst instance
	var setups []float64
	begin := time.Now()
	for i := 0; i < maxSetups && (i < minSetups || time.Since(begin) < setupBudget); i++ {
		if inst != nil {
			inst.close()
		}
		dir := filepath.Join(scratch, fmt.Sprintf("setup-%d", i))
		sp := r.root.Start("bench.setup")
		t0 := time.Now()
		var err error
		inst, err = setup(ctx, r, dir)
		setups = append(setups, time.Since(t0).Seconds())
		sp.End()
		if err != nil {
			return nil, fmt.Errorf("%s setup: %w", o.workload, err)
		}
	}
	defer inst.close()
	r.res.set("setup_s", median(setups), len(setups))
	if err := inst.measure(ctx, r); err != nil {
		return nil, fmt.Errorf("%s: %w", o.workload, err)
	}
	if o.trace {
		if err := r.writeTrace(); err != nil {
			return nil, err
		}
	}
	r.res.host = fingerprint(scratch)
	return r.res, nil
}

// instance is one set-up workload, ready to measure.
type instance interface {
	// measure runs the timed phase for the run's seconds, checks the
	// outputs and records the metrics; in a traced run it also replays
	// the workload's inputs into the layers it names.
	measure(ctx context.Context, r *runner) error
	close()
}

// workloads maps each workload name to its setup.
var workloads = map[string]func(ctx context.Context, r *runner, dir string) (instance, error){
	"suite-cold":    setupSuite,
	"paper-sweep":   setupSweep,
	"service-mixed": setupService,
	"fleet-sweep":   setupFleet,
}

func workloadNames() string {
	return "suite-cold, paper-sweep, service-mixed, fleet-sweep"
}

// runner carries one run's settings, its result and its tracer.
type runner struct {
	o      options
	log    io.Writer
	res    *result
	tracer *obs.Tracer // nil unless --trace 1
	root   obs.Span
}

// traceFile is where a traced run leaves its Chrome trace.
func (r *runner) traceFile() string {
	return filepath.Join(r.o.root, ".bench_build", "perfbench",
		fmt.Sprintf("trace-%s-seed%d.json", r.o.workload, r.o.seed))
}

// writeTrace closes the run's spans, writes them as a Chrome trace and
// validates the file exactly as `tracetool -validate` does.
func (r *runner) writeTrace() error {
	r.root.End()
	r.tracer.Finish()
	path := r.traceFile()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.tracer.WriteChrome(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	recs, err := obs.ParseChrome(data)
	if err != nil {
		return fmt.Errorf("trace %s does not validate: %w", path, err)
	}
	fmt.Fprintf(r.log, "perfbench: trace %s: %d spans\n", path, len(recs))
	return nil
}
