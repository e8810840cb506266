package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"datastall"
	"datastall/internal/experiments"
	"datastall/internal/obs"
	"datastall/internal/trainer"
)

// expWallIDs are the experiments whose wall time suite-cold reports one
// by one: together they take over half of the suite.
var expWallIDs = []string{"sec3-lang", "fig9a", "fig9d", "fig17", "fig4"}

// suiteCold is the full experiment registry through the root facade,
// datastall.RunSuite, at default scales with seed 1, one worker per CPU and
// no memo. Its inputs are the registry itself, so the workload seed does
// not change them; the golden report pins them to seed 1.
type suiteCold struct {
	golden   []byte
	parallel int
	expWall  map[string][]float64
	last     *datastall.SuiteReport
}

func setupSuite(ctx context.Context, r *runner, dir string) (instance, error) {
	golden, err := os.ReadFile(filepath.Join(r.o.root, "testdata", "golden-suite.json"))
	if err != nil {
		return nil, err
	}
	if !json.Valid(golden) {
		return nil, fmt.Errorf("testdata/golden-suite.json is not JSON")
	}
	if n := len(datastall.Experiments()); n == 0 {
		return nil, fmt.Errorf("empty experiment registry")
	}
	return &suiteCold{
		golden:   r.corrupted("suite", golden),
		parallel: runtime.NumCPU(),
		expWall:  map[string][]float64{},
	}, nil
}

func (s *suiteCold) measure(ctx context.Context, r *runner) error {
	return r.measureBatch(ctx, s)
}

func (s *suiteCold) close() {}

// pass runs the whole suite once; each experiment is one op.
func (s *suiteCold) pass(ctx context.Context, sp obs.Span) ([]float64, error) {
	var ops []float64
	call := sp.Start("datastall.RunSuite")
	rep, err := datastall.RunSuite(ctx, datastall.SuiteOptions{
		Seed: 1, Parallel: s.parallel,
		Progress: func(e datastall.SuiteExperiment) {
			ops = append(ops, e.WallSeconds*1e3)
			s.expWall[e.ID] = append(s.expWall[e.ID], e.WallSeconds)
		},
	})
	call.End()
	if err != nil {
		return ops, err
	}
	if rep.Failed > 0 || rep.Skipped > 0 {
		return ops, fmt.Errorf("suite: %d experiments failed, %d skipped", rep.Failed, rep.Skipped)
	}
	s.last = rep
	got, err := rep.JSON(false)
	if err != nil {
		return ops, err
	}
	return ops, sameBytes("suite report", append(got, '\n'), s.golden)
}

// layers reports the per-experiment walls of the passes and replays the
// suite's spec-driven experiments, its datasets and its captured cases
// into the trainer, sim, dataset, cache and query layers.
func (s *suiteCold) layers(ctx context.Context, r *runner, sp obs.Span) error {
	for _, id := range expWallIDs {
		r.res.set("experiments.exp_wall_s."+id, median(s.expWall[id]), len(s.expWall[id]))
	}
	ts := newTrainerStats()
	var cfgs []trainer.Config
	for _, spec := range experiments.Specs() {
		e, err := experiments.ByID(spec.Name)
		if err != nil {
			return err
		}
		o := experiments.Options{Scale: e.DefaultScale, Epochs: 3, Seed: 1}
		cells, err := experiments.EnumerateCases(spec, o)
		if err != nil {
			return err
		}
		for _, c := range cells {
			cfg, err := c.Job.Build(o)
			if err != nil {
				return err
			}
			cfgs = append(cfgs, cfg)
		}
		call := sp.Start("experiments.RunSpecProgress")
		call.SetAttr("spec", spec.Name)
		_, err = experiments.RunSpecProgress(ctx, spec, o, func(c experiments.CaseProgress) {
			ts.loader = loaderName(cells[c.Index].Job)
		}, ts)
		call.End()
		if err != nil {
			return err
		}
	}
	ts.report(r.res)
	replaySim(sp, r.res, 64, 20000)
	replayData(sp, r.res, inputsOf(cfgs, 4))
	if s.last == nil {
		return fmt.Errorf("no clean suite pass to replay")
	}
	data, err := s.last.JSONWith(false, true)
	if err != nil {
		return err
	}
	cases, err := experiments.LoadSuiteCases(data)
	if err != nil {
		return err
	}
	return replayQuery(ctx, sp, r.res, cases, 5)
}
