package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"datastall/internal/experiments"
	"datastall/internal/obs"
	"datastall/internal/server"
	"datastall/internal/trainer"
)

// fleetRows is the number of cache fractions in the fleet grid; each runs
// under both loaders.
const fleetRows = 16

// The finished jobs each fleet server keeps are bounded so memory levels
// off within the first passes of a run: a worker's records are single
// cases, the coordinator's are whole grids with their merged traces.
const (
	workerRecords = 512
	coordRecords  = 16
)

// fleetSweep is a coordinator server scattering a seeded grid of small
// cases across two worker servers over loopback, with no memo and no WAL.
type fleetSweep struct {
	workers []*service
	counts  []*reqCounter
	coord   *service
	client  *http.Client

	spec   *experiments.Spec
	cells  []experiments.SpecCase
	ref    []byte // the single-node report, as the coordinator serves it
	cfgs   []trainer.Config
	cases  []*experiments.CaseResult
	passes int
	before []map[string]float64 // coordinator, then workers
}

func setupFleet(ctx context.Context, r *runner, dir string) (instance, error) {
	rows := fleetRows
	if r.o.small {
		rows = 4
	}
	rng := rand.New(rand.NewSource(r.o.seed))
	f := &fleetSweep{spec: gridSpec("fleet-grid", rng, r.o.seed, rows), client: newClient(4)}
	var err error
	if f.cells, err = experiments.EnumerateCases(f.spec, experiments.Options{}); err != nil {
		return nil, err
	}
	for _, c := range f.cells {
		cfg, err := c.Job.Build(experiments.Options{})
		if err != nil {
			return nil, err
		}
		f.cfgs = append(f.cfgs, cfg)
	}
	rep, err := experiments.RunSpecProgress(ctx, f.spec, experiments.Options{}, nil)
	if err != nil {
		return nil, err
	}
	f.cases = rep.Cases
	ref, err := json.Marshal(wireOf(rep))
	if err != nil {
		return nil, err
	}
	f.ref = r.corrupted("fleet", ref)

	var urls []string
	for i := 0; i < 2; i++ {
		c := &reqCounter{}
		svc, err := startService(server.Config{MaxRecords: workerRecords}, c.wrap)
		if err != nil {
			f.close()
			return nil, err
		}
		f.workers, f.counts = append(f.workers, svc), append(f.counts, c)
		urls = append(urls, svc.url)
	}
	if f.coord, err = startService(server.Config{WorkerURLs: urls, MaxRecords: coordRecords}, nil); err != nil {
		f.close()
		return nil, err
	}
	for _, s := range f.services() {
		m, err := scrape(ctx, f.client, s.url)
		if err != nil {
			f.close()
			return nil, err
		}
		f.before = append(f.before, m)
	}
	for _, c := range f.counts {
		c.reset()
	}
	return f, nil
}

// services is the coordinator followed by the workers.
func (f *fleetSweep) services() []*service {
	if f.coord == nil {
		return f.workers
	}
	return append([]*service{f.coord}, f.workers...)
}

func (f *fleetSweep) close() {
	f.client.CloseIdleConnections()
	for _, s := range f.services() {
		s.close()
	}
}

func (f *fleetSweep) measure(ctx context.Context, r *runner) error {
	return r.measureBatch(ctx, f)
}

// pass submits the grid to the coordinator, follows it to completion and
// checks the gathered report against the single-node one. The grid is the
// pass's one op, timed from its POST to its job_done event.
func (f *fleetSweep) pass(ctx context.Context, sp obs.Span) ([]float64, error) {
	f.passes++
	body, _ := json.Marshal(server.SubmitRequest{Spec: f.spec})
	t0 := time.Now()
	s := sp.Start("POST /v1/jobs")
	id, err := submit(ctx, f.client, f.coord.url, body)
	s.End()
	if err != nil {
		return nil, err
	}
	s = sp.Start("GET /v1/jobs/{id}/events")
	status, err := waitDone(ctx, f.client, f.coord.url, id)
	s.End()
	ops := []float64{time.Since(t0).Seconds() * 1e3}
	if err != nil {
		return ops, err
	}
	if status != "completed" {
		return ops, fmt.Errorf("grid job %s ended %s", id, status)
	}
	s = sp.Start("GET /v1/jobs/{id}")
	job, err := get(ctx, f.client, f.coord.url+"/v1/jobs/"+id)
	s.End()
	if err != nil {
		return ops, err
	}
	var v struct {
		Report json.RawMessage `json:"report"`
	}
	if err := json.Unmarshal(job, &v); err != nil {
		return ops, err
	}
	var got bytes.Buffer
	if err := json.Compact(&got, v.Report); err != nil {
		return ops, err
	}
	return ops, sameBytes("gathered fleet report", got.Bytes(), f.ref)
}

// layers reads the fleet's counters over all passes, times the same grid
// on a single node, and replays its inputs into single layers.
func (f *fleetSweep) layers(ctx context.Context, r *runner, sp obs.Span) error {
	var c []counters
	for i, s := range f.services() {
		m, err := scrape(ctx, f.client, s.url)
		if err != nil {
			return err
		}
		c = append(c, delta(f.before[i], m))
	}
	coord, w0, w1 := c[0], c[1], c[2]
	passes := float64(f.passes)
	dispatched := coord["stallserved_cases_dispatched_total"]
	r.res.set("coordinator.cases_dispatched", dispatched/passes, f.passes)
	r.res.set("coordinator.retries", coord["stallserved_case_retries_total"]/passes, f.passes)
	requests, accepts := 0, []float64{}
	for _, rc := range f.counts {
		rc.mu.Lock()
		requests += rc.requests
		accepts = append(accepts, rc.acceptMs...)
		rc.mu.Unlock()
	}
	r.res.set("coordinator.worker_requests_per_case", ratio(float64(requests), dispatched), requests)
	busy := w0["stallserved_case_seconds_sum"] + w1["stallserved_case_seconds_sum"]
	hop := ratio(coord["stallserved_case_seconds_sum"]-busy, coord["stallserved_case_seconds_count"])
	r.res.set("coordinator.hop_overhead_ms_per_case", hop*1e3, int(coord["stallserved_case_seconds_count"]))
	r.res.set("server.accept_p50_ms", quantile(accepts, 0.5), len(accepts))
	workers := counters{}
	for _, w := range []counters{w0, w1} {
		for k, v := range w {
			workers[k] += v
		}
	}
	v, n := workers.meanMs("stallserved_case_seconds")
	r.res.set("server.case_mean_ms", v, n)
	v, n = workers.meanMs("stallserved_queue_wait_seconds")
	r.res.set("server.queue_wait_mean_ms", v, n)
	r.res.set("events.published", coord["stallserved_events_published_total"]+workers["stallserved_events_published_total"], f.passes)
	r.res.set("events.dropped", coord["stallserved_events_dropped_total"]+workers["stallserved_events_dropped_total"], f.passes)

	ts := newTrainerStats()
	var single []float64
	for i := 0; i < 3; i++ {
		s := sp.Start("experiments.RunSpecProgress")
		t0 := time.Now()
		_, err := experiments.RunSpecProgress(ctx, f.spec, experiments.Options{}, func(c experiments.CaseProgress) {
			ts.loader = loaderName(f.cells[c.Index].Job)
		}, ts)
		single = append(single, time.Since(t0).Seconds())
		s.End()
		if err != nil {
			return err
		}
	}
	r.res.set("coordinator.scatter_ratio", ratio(r.res.vals["wall_s"].v, median(single)), len(single))
	ts.report(r.res)
	replaySim(sp, r.res, 64, 20000)
	replayData(sp, r.res, inputsOf(f.cfgs, 1))
	return replayQuery(ctx, sp, r.res, f.cases, 5)
}

// reqCounter wraps a worker's Handler: it counts every request, polls and
// health probes included, and times each case submission to its 202.
type reqCounter struct {
	h        http.Handler
	mu       sync.Mutex
	requests int
	acceptMs []float64
}

func (c *reqCounter) wrap(h http.Handler) http.Handler {
	c.h = h
	return c
}

func (c *reqCounter) reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.requests, c.acceptMs = 0, nil
}

func (c *reqCounter) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	c.mu.Lock()
	c.requests++
	c.mu.Unlock()
	t0 := time.Now()
	c.h.ServeHTTP(w, req)
	if req.Method == http.MethodPost && req.URL.Path == "/v1/jobs" {
		c.mu.Lock()
		c.acceptMs = append(c.acceptMs, time.Since(t0).Seconds()*1e3)
		c.mu.Unlock()
	}
}
