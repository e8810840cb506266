package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"

	"datastall/internal/obs"
	"datastall/internal/trainer"
)

// gridTestSpec is a 2-row x 2-case grid at a tiny scale: big enough to have
// real row/sweep structure, small enough to simulate in milliseconds.
func gridTestSpec(t *testing.T) *Spec {
	t.Helper()
	sp, err := LoadSpec([]byte(`{
		"name": "gridtest",
		"title": "grid split fidelity",
		"row_header": ["cache"],
		"base": {"model": "resnet18", "dataset": "imagenet-1k", "scale": 0.005, "epochs": 2, "seed": 1},
		"rows": {"param": "cache_fraction", "values": [0.25, 0.5]},
		"sweep": {"param": "loader", "values": ["dali-shuffle", "coordl"]},
		"columns": [
			{"label": "dali s", "metric": "epoch_s", "of": "dali-shuffle", "key": "{row}/dali"},
			{"label": "speedup", "metric": "epoch_s", "of": "dali-shuffle", "over": "coordl"}
		]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// TestGridSplitMatchesRunSpec is the scatter/gather contract: running the
// enumerated cells out of order (here: reversed) and assembling by Index
// yields a Report byte-identical to the single-node RunSpec loop.
func TestGridSplitMatchesRunSpec(t *testing.T) {
	sp := gridTestSpec(t)
	o := Options{}
	direct, err := RunSpec(context.Background(), sp, o)
	if err != nil {
		t.Fatal(err)
	}

	cells, err := EnumerateCases(sp, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 4 {
		t.Fatalf("enumerated %d cells, want 4", len(cells))
	}
	for i, c := range cells {
		if c.Index != i || c.Total != 4 {
			t.Fatalf("cell %d: Index=%d Total=%d", i, c.Index, c.Total)
		}
	}

	// Execute in reverse order, and round-trip each cell's JobSpec through
	// JSON first — exactly what a coordinator shipping cells to remote
	// workers does.
	results := make([]*trainer.Result, len(cells))
	for i := len(cells) - 1; i >= 0; i-- {
		b, err := json.Marshal(cells[i].Job)
		if err != nil {
			t.Fatal(err)
		}
		var js JobSpec
		if err := json.Unmarshal(b, &js); err != nil {
			t.Fatal(err)
		}
		cfg, err := js.Build(o)
		if err != nil {
			t.Fatal(err)
		}
		res, err := trainer.RunContext(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		results[cells[i].Index] = res
	}
	assembled, err := AssembleReport(sp, o, results)
	if err != nil {
		t.Fatal(err)
	}

	directJSON, err := json.Marshal(direct)
	if err != nil {
		t.Fatal(err)
	}
	assembledJSON, err := json.Marshal(assembled)
	if err != nil {
		t.Fatal(err)
	}
	if string(directJSON) != string(assembledJSON) {
		t.Fatalf("assembled report differs from RunSpec:\ndirect:    %s\nassembled: %s", directJSON, assembledJSON)
	}
	if direct.Table.String() != assembled.Table.String() {
		t.Fatalf("rendered tables differ:\n%s\nvs\n%s", direct.Table.String(), assembled.Table.String())
	}
	if len(assembled.Cases) != 4 {
		t.Fatalf("assembled %d cases, want 4", len(assembled.Cases))
	}
}

// TestAssembleReportValidation: result slices that cannot correspond to the
// grid are rejected instead of silently producing a wrong table.
func TestAssembleReportValidation(t *testing.T) {
	sp := gridTestSpec(t)
	if _, err := AssembleReport(sp, Options{}, make([]*trainer.Result, 3)); err == nil {
		t.Fatal("wrong result count accepted")
	}
	if _, err := AssembleReport(sp, Options{}, make([]*trainer.Result, 4)); err == nil {
		t.Fatal("nil results accepted")
	}
}

// TestEnumerateCasesNoSweep: a spec without a sweep axis enumerates one
// cell per row with an empty Case label, matching CaseProgress semantics.
func TestEnumerateCasesNoSweep(t *testing.T) {
	sp, err := LoadSpec([]byte(`{
		"name": "nosweep",
		"row_header": ["model"],
		"base": {"scale": 0.005, "epochs": 1},
		"rows": {"param": "model", "values": ["resnet18", "alexnet"]},
		"columns": [{"label": "s", "metric": "epoch_s"}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	cells, err := EnumerateCases(sp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 {
		t.Fatalf("got %d cells, want 2", len(cells))
	}
	for _, c := range cells {
		if c.Case != "" {
			t.Fatalf("no-sweep cell has Case %q", c.Case)
		}
	}
	if cells[0].Row != "resnet18" || cells[1].Row != "alexnet" {
		t.Fatalf("row labels %q/%q", cells[0].Row, cells[1].Row)
	}
	if cells[0].Job.Model != "resnet18" || cells[1].Job.Model != "alexnet" {
		t.Fatalf("overlaid models %q/%q", cells[0].Job.Model, cells[1].Job.Model)
	}
}

// repeatedCells enumerates a 2-row x 2-loader grid whose two rows resolve
// to the same simulation (prefetch_depth and batch pinned to their
// defaults): 4 cells, 2 unique cases.
func repeatedCells(t *testing.T) ([]SpecCase, Options) {
	t.Helper()
	sp, err := LoadSpec([]byte(`{
		"name": "repeats", "row_header": ["variant"],
		"base": {"model": "resnet18", "server": "config-ssd-v100", "scale": 0.005, "epochs": 2},
		"rows": {"cases": [
			{"label": "a", "cells": ["a"], "set": {"prefetch_depth": 3}},
			{"label": "b", "cells": ["b"], "set": {"batch": 512}}
		]},
		"sweep": {"param": "loader", "values": ["dali-shuffle", "coordl"]},
		"columns": [{"label": "s", "metric": "epoch_s", "of": "coordl"}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	cells, err := EnumerateCases(sp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return cells, Options{}
}

// TestRunCasesInflightMatchesSerial: with every cell in flight the executor
// returns the same results as the serial path, announces cells in index
// order, and still runs each unique case once and copies the repeats.
func TestRunCasesInflightMatchesSerial(t *testing.T) {
	cells, o := repeatedCells(t)
	var want []byte
	for _, inflight := range []int{1, len(cells)} {
		var started []int
		var mu sync.Mutex
		fresh, copied := 0, 0
		results, err := RunCases(context.Background(), cells, o, CaseHooks{
			Started: func(c SpecCase) { started = append(started, c.Index) },
			Done: func(c SpecCase, res *trainer.Result, isFresh bool) {
				mu.Lock()
				defer mu.Unlock()
				if isFresh {
					fresh++
				} else {
					copied++
				}
			},
			Inflight: inflight,
		})
		if err != nil {
			t.Fatalf("inflight %d: %v", inflight, err)
		}
		if fmt.Sprint(started) != "[0 1 2 3]" {
			t.Fatalf("inflight %d: cells started in order %v", inflight, started)
		}
		if fresh != 2 || copied != 2 {
			t.Fatalf("inflight %d: %d fresh and %d copied cells, want 2 and 2", inflight, fresh, copied)
		}
		got, err := json.Marshal(results)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
		} else if string(got) != string(want) {
			t.Fatalf("inflight %d results differ from serial", inflight)
		}
	}
}

// TestRunCasesFirstErrorCancels: the first failing cell's error is
// returned, serially no later cell starts, and with every cell in flight
// the others are cancelled and no copy is delivered.
func TestRunCasesFirstErrorCancels(t *testing.T) {
	cells, o := repeatedCells(t)
	boom := errors.New("boom")
	for _, inflight := range []int{1, len(cells)} {
		var mu sync.Mutex
		started, done := 0, 0
		_, err := RunCases(context.Background(), cells, o, CaseHooks{
			Started: func(SpecCase) { started++ },
			Run: func(ctx context.Context, c SpecCase, _ obs.Span) (*trainer.Result, error) {
				if c.Index == 0 {
					return nil, boom
				}
				<-ctx.Done()
				return nil, ctx.Err()
			},
			Done: func(SpecCase, *trainer.Result, bool) {
				mu.Lock()
				done++
				mu.Unlock()
			},
			Inflight: inflight,
		})
		if !errors.Is(err, boom) {
			t.Fatalf("inflight %d: error %v, want the first cell's", inflight, err)
		}
		if done != 0 {
			t.Fatalf("inflight %d: %d cells delivered after a failure", inflight, done)
		}
		if inflight == 1 && started != 1 {
			t.Fatalf("serial run started %d cells after the first failed", started)
		}
	}
}
