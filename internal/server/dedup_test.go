package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"datastall/internal/experiments"
	"datastall/internal/wal"
)

// dedupSpec is the memo battery's grid (memo_battery_test.go's
// randomSpecJSON) with its random picks fixed: 3 rows x 2 loaders = 6
// cells, but the defaults-a row (prefetch_depth pinned to its default) and
// the defaults-b row (batch pinned to resnet18's V100 default) resolve to
// the same simulation per loader, so only 4 cases are unique.
const dedupSpec = `{
	"name": "dedup-grid", "title": "repeated resolved cells",
	"row_header": ["variant"],
	"base": {"model": "resnet18", "server": "config-ssd-v100", "cache_fraction": 0.5},
	"rows": {"cases": [
		{"label": "defaults-a", "cells": ["defaults-a"], "set": {"prefetch_depth": 3}},
		{"label": "defaults-b", "cells": ["defaults-b"], "set": {"batch": 512}},
		{"label": "half-batch", "cells": ["half-batch"], "set": {"batch": 256}}
	]},
	"sweep": {"param": "loader", "values": ["dali-shuffle", "coordl"]},
	"columns": [
		{"label": "shuffle s", "metric": "epoch_s", "of": "dali-shuffle"},
		{"label": "coordl s", "metric": "epoch_s", "of": "coordl"},
		{"label": "shuffle stall %", "metric": "stall_pct", "of": "dali-shuffle"}
	]
}`

// checkDedupRun submits dedupSpec to srv and checks what every run path
// must agree on: the report byte-equals the in-process RunSpec, the WAL
// logs case_done for all 6 cells, and the trace marks exactly 2 cells
// case_dedup. It returns the trace's simulate span count.
func checkDedupRun(t *testing.T, srv *Server, ts *httptest.Server, walDir string) int {
	t.Helper()
	resp, body := postJSON(t, ts.URL+"/v1/jobs", `{"spec": `+dedupSpec+`, "scale": 0.02, "epochs": 2}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var acc struct{ ID string }
	if err := json.Unmarshal([]byte(body), &acc); err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, srv, acc.ID, 120*time.Second); st != StatusCompleted {
		t.Fatalf("job ended %s (%s)", st, srv.store.get(acc.ID).view(true).Error)
	}

	sp, err := experiments.LoadSpec([]byte(dedupSpec))
	if err != nil {
		t.Fatal(err)
	}
	direct, err := experiments.RunSpec(context.Background(), sp, experiments.Options{Scale: 0.02, Epochs: 2})
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(toReportJSON(direct))
	if err != nil {
		t.Fatal(err)
	}
	_, jb := getJSON(t, ts.URL+"/v1/jobs/"+acc.ID)
	var v jobJSON
	if err := json.Unmarshal([]byte(jb), &v); err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(v.Report)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("report differs from RunSpec:\n got %s\nwant %s", got, want)
	}

	rec, err := wal.ReadAll(walDir)
	if err != nil {
		t.Fatal(err)
	}
	var done []int
	for _, r := range rec.Records {
		if r.JobID == acc.ID && r.Type == wal.TypeCaseDone {
			var c walCase
			if err := json.Unmarshal(r.Payload, &c); err != nil {
				t.Fatal(err)
			}
			done = append(done, c.Index)
		}
	}
	sort.Ints(done)
	if len(done) != 6 || done[0] != 0 || done[5] != 5 {
		t.Fatalf("wal case_done indices %v, want one per cell 0..5", done)
	}
	if err := lifecycleOrder(rec.Records); err != nil {
		t.Fatal(err)
	}

	recs := fetchTraceRecords(t, ts, acc.ID)
	names := map[int64]string{}
	for _, r := range recs {
		names[r.ID] = r.Name
	}
	dedupCells := map[int64]bool{}
	for _, r := range spansNamed(recs, "case_dedup") {
		if names[r.Parent] != "case" {
			t.Fatalf("case_dedup under %q, want a case span", names[r.Parent])
		}
		dedupCells[r.Parent] = true
	}
	if n := len(spansNamed(recs, "case_dedup")); n != 2 || len(dedupCells) != 2 {
		t.Fatalf("%d case_dedup events on %d cells, want 2 on 2", n, len(dedupCells))
	}
	return len(spansNamed(recs, "simulate"))
}

// TestRepeatedCellsLocal: a local server runs each unique case of a grid
// with repeated resolved cells once and copies it into the repeats.
func TestRepeatedCellsLocal(t *testing.T) {
	walDir := filepath.Join(t.TempDir(), "wal")
	srv, ts := newTestServer(t, Config{Workers: 1, WALDir: walDir})
	if n := checkDedupRun(t, srv, ts, walDir); n != 4 {
		t.Fatalf("%d simulations, want 4 (one per unique case)", n)
	}
}

// TestRepeatedCellsCoordinator: a coordinator dispatches each unique case
// of the same grid exactly once across its fleet.
func TestRepeatedCellsCoordinator(t *testing.T) {
	var submits atomic.Int64
	count := func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost && r.URL.Path == "/v1/jobs" {
				submits.Add(1)
			}
			h.ServeHTTP(w, r)
		})
	}
	_, w1 := newWorker(t, Config{Workers: 2}, count)
	_, w2 := newWorker(t, Config{Workers: 2}, count)
	walDir := filepath.Join(t.TempDir(), "wal")
	coord, ts := newCoordinatorServer(t, []string{w1.URL, w2.URL}, func(c *Config) { c.WALDir = walDir })
	checkDedupRun(t, coord, ts, walDir)
	if n := submits.Load(); n != 4 {
		t.Fatalf("workers received %d job submissions, want 4 (one per unique case)", n)
	}
}
