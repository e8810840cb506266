package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"datastall/internal/experiments"
	"datastall/internal/obs"
	"datastall/internal/stats"
	"datastall/internal/trainer"
)

// paperSweep is testdata/specs/cache-sweep.json at paper scale (ImageNet-1k
// at 1.28M items, 10 cases, 3 epochs) through experiments.RunSpecProgress.
// Like suite-cold, its inputs are fixed files, so the workload seed does
// not change them; the reference report pins them.
type paperSweep struct {
	spec    *experiments.Spec
	cells   []experiments.SpecCase
	cfgs    []trainer.Config
	ref     []byte
	refPath string
	record  bool
	stats   *trainerStats
	last    *experiments.Report
}

// sweepScale is the paper-sweep dataset scale; the self-test size runs the
// spec at its own small scale against a second reference.
func sweepScale(small bool) (float64, string) {
	if small {
		return 0.01, "paper-sweep-small.json"
	}
	return 1.0, "paper-sweep.json"
}

func setupSweep(ctx context.Context, r *runner, dir string) (instance, error) {
	data, err := os.ReadFile(filepath.Join(r.o.root, "testdata", "specs", "cache-sweep.json"))
	if err != nil {
		return nil, err
	}
	sp, err := experiments.LoadSpec(data)
	if err != nil {
		return nil, err
	}
	scale, refName := sweepScale(r.o.small)
	sp.Base.Scale = scale
	cells, err := experiments.EnumerateCases(sp, experiments.Options{})
	if err != nil {
		return nil, err
	}
	w := &paperSweep{spec: sp, cells: cells, stats: newTrainerStats(), record: r.o.record,
		refPath: filepath.Join(r.o.root, "perfbench", "ref", refName)}
	for _, c := range cells {
		cfg, err := c.Job.Build(experiments.Options{})
		if err != nil {
			return nil, err
		}
		w.cfgs = append(w.cfgs, cfg)
	}
	if !w.record {
		ref, err := os.ReadFile(w.refPath)
		if err != nil {
			return nil, fmt.Errorf("paper-sweep reference: %w", err)
		}
		w.ref = r.corrupted("sweep", ref)
	}
	return w, nil
}

func (w *paperSweep) measure(ctx context.Context, r *runner) error {
	return r.measureBatch(ctx, w)
}

func (w *paperSweep) close() {}

// pass runs the sweep once, which is its one op: its cases split evenly
// between a slow and a fast loader, so a quantile over them would jump
// between the two.
func (w *paperSweep) pass(ctx context.Context, sp obs.Span) ([]float64, error) {
	var caseSpan obs.Span
	t0 := time.Now()
	call := sp.Start("experiments.RunSpecProgress")
	rep, err := experiments.RunSpecProgress(ctx, w.spec, experiments.Options{}, func(c experiments.CaseProgress) {
		caseSpan.End()
		caseSpan = call.Start("bench.case")
		caseSpan.SetAttr("row", c.Row)
		caseSpan.SetAttr("case", c.Case)
		w.stats.loader = loaderName(w.cells[c.Index].Job)
	}, w.stats)
	caseSpan.End()
	call.End()
	ops := []float64{time.Since(t0).Seconds() * 1e3}
	if err != nil {
		return ops, err
	}
	w.last = rep
	got, err := json.MarshalIndent(wireOf(rep), "", "  ")
	if err != nil {
		return ops, err
	}
	got = append(got, '\n')
	if w.record {
		return ops, os.WriteFile(w.refPath, got, 0o644)
	}
	return ops, sameBytes("paper-sweep report", got, w.ref)
}

// layers reports what the passes' observers timed and replays the
// sweep's dataset at its five cache capacities into the dataset,
// page-cache and MinIO layers.
func (w *paperSweep) layers(ctx context.Context, r *runner, sp obs.Span) error {
	w.stats.report(r.res)
	replaySim(sp, r.res, 64, 20000)
	replayData(sp, r.res, inputsOf(w.cfgs, 1))
	if w.last == nil {
		return fmt.Errorf("no clean sweep pass to replay")
	}
	return replayQuery(ctx, sp, r.res, w.last.Cases, 5)
}

// reportWire is a report in the job service's wire form: the table
// through its pre-formatted cells, so values compare digit for digit.
type reportWire struct {
	ID     string             `json:"id,omitempty"`
	Title  string             `json:"title,omitempty"`
	Paper  string             `json:"paper,omitempty"`
	Notes  string             `json:"notes,omitempty"`
	Values map[string]float64 `json:"values,omitempty"`
	Table  *stats.TableJSON   `json:"table,omitempty"`
}

// wireOf is rep in the job service's wire form.
func wireOf(rep *experiments.Report) reportWire {
	w := reportWire{ID: rep.ID, Title: rep.Title, Paper: rep.Paper, Notes: rep.Notes, Values: rep.Values}
	if rep.Table != nil {
		w.Table = rep.Table.JSON()
	}
	return w
}
