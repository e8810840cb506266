package main

import (
	"context"
	"time"

	"datastall/internal/obs"
)

// batch is a workload whose timed phase repeats one unit of work (a
// "pass": a whole suite run, sweep or fleet grid) until the run's seconds
// are spent.
type batch interface {
	// pass runs one unit of work under sp and checks its output. ops are
	// the latencies in ms of the operations the pass is made of.
	pass(ctx context.Context, sp obs.Span) (ops []float64, err error)
	// layers records the per-layer metrics: it reads what the traced
	// passes observed and replays the workload's inputs into single layers.
	layers(ctx context.Context, r *runner, sp obs.Span) error
}

// minPasses is the fewest untraced passes an end-to-end run makes,
// however long one pass takes.
const minPasses = 2

// measureBatch runs b's passes for the run's seconds, after one untimed
// warm-up pass whose output is checked like the others. An end-to-end run
// reports the medians of its passes. A traced run alternates untraced and
// traced passes, so the difference of their medians is the tracing
// overhead, and then records the per-layer metrics.
func (r *runner) measureBatch(ctx context.Context, b batch) error {
	_, err := b.pass(ctx, obs.Span{})
	r.res.op(err)
	if ctx.Err() != nil {
		return ctx.Err()
	}
	var walls, cpus, tracedWalls, ops []float64
	smp := startSampler()
	u0 := readUsage()
	start := time.Now()
	passes := 0
	for {
		traced := r.o.trace && passes%2 == 1
		sp := obs.Span{}
		if traced {
			sp = r.root.Start("bench.pass")
		}
		u := readUsage()
		o, err := b.pass(ctx, sp)
		s := since(u)
		sp.End()
		passes++
		r.res.op(err)
		if ctx.Err() != nil {
			return ctx.Err()
		}
		ops = append(ops, o...)
		if traced {
			tracedWalls = append(tracedWalls, s.wall)
		} else {
			walls = append(walls, s.wall)
			cpus = append(cpus, s.cpu)
		}
		enough := len(walls) >= minPasses
		if r.o.trace {
			enough = len(walls) >= 1 && len(tracedWalls) >= 1
		}
		if enough && time.Since(start) >= r.o.seconds {
			break
		}
	}
	rss, goroutines := smp.finish()
	total := since(u0)

	r.res.set("wall_s", median(walls), len(walls))
	r.res.set("cpu_s", median(cpus), len(cpus))
	r.res.set("peak_rss_mib", rss, 1)
	r.res.set("op_p50_ms", quantile(ops, 0.5), len(ops))
	r.res.set("op_p99_ms", quantile(ops, 0.99), len(ops))
	if !r.o.trace {
		return nil
	}
	r.res.setRuntime(total, passes, goroutines)
	r.res.set("obs.tracing_overhead_s", median(tracedWalls)-median(walls), len(tracedWalls))
	sp := r.root.Start("bench.layers")
	defer sp.End()
	return b.layers(ctx, r, sp)
}
