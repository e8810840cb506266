package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"datastall/internal/experiments"
)

// smallJob is the small single training job the service and fleet
// workloads are made of: about a millisecond of simulation, so the
// service layers, not the simulator, do most of the work.
func smallJob(seed int64, cacheFraction float64, loader string) experiments.JobSpec {
	return experiments.JobSpec{
		Model: "resnet18", Scale: 0.0005, Epochs: 2,
		CacheFraction: cacheFraction, Loader: loader, Seed: seed,
	}
}

// loaders are the two fetch paths every generated grid sweeps.
var loaders = []string{"dali-shuffle", "coordl"}

// fraction draws a cache fraction in [0.10, 0.90] at 0.001 resolution.
func fraction(rng *rand.Rand) float64 {
	return float64(100+rng.Intn(801)) / 1000
}

// gridSpec is a seeded cache-fraction x loader sweep of small jobs.
func gridSpec(name string, rng *rand.Rand, seed int64, rows int) *experiments.Spec {
	seen := map[float64]bool{}
	var vals []json.RawMessage
	for len(vals) < rows {
		f := fraction(rng)
		if seen[f] {
			continue
		}
		seen[f] = true
		vals = append(vals, json.RawMessage(fmt.Sprint(f)))
	}
	var sweep []json.RawMessage
	for _, l := range loaders {
		b, _ := json.Marshal(l)
		sweep = append(sweep, b)
	}
	base := smallJob(seed, 0, "")
	return &experiments.Spec{
		Name:      name,
		Title:     "small-job cache sweep: DALI-shuffle vs CoorDL",
		RowHeader: []string{"cache frac"},
		Base:      base,
		Rows:      experiments.Axis{Param: "cache_fraction", Values: vals},
		Sweep:     &experiments.Axis{Param: "loader", Values: sweep},
		Columns: []experiments.Column{
			{Label: "dali s", Metric: "epoch_s", Of: "dali-shuffle"},
			{Label: "coordl s", Metric: "epoch_s", Of: "coordl"},
			{Label: "speedup", Metric: "epoch_s", Of: "dali-shuffle", Over: "coordl", Key: "speedup_{row}"},
			{Label: "coordl hit %", Metric: "hit_pct", Of: "coordl"},
		},
	}
}
