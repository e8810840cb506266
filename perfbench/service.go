package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"datastall/internal/experiments"
	"datastall/internal/obs"
	"datastall/internal/query"
	"datastall/internal/server"
	"datastall/internal/trainer"
	"datastall/internal/wal"
)

// Service-mixed load: an open-loop arrival schedule in a nominal phase and
// then rate steps, sent over at most nproc client connections.
const (
	nominalSubmitsPerS = 62.0
	queriesPerS        = 10.0
	// nominalShare of the run's seconds is the nominal phase; the rest is
	// split evenly between the rate steps.
	nominalShare = 0.85
	// sloP90 is the submit->complete p90 a rate step must meet.
	sloP90 = 100 * time.Millisecond
)

// stepFactors are the rate steps as multiples of the nominal submit rate.
var stepFactors = []float64{1.5, 2, 3}

type opKind int

const (
	opJob    opKind = iota // one small job: POST, then its /events stream
	opSpec                 // a small sweep: POST, then its /events stream
	opCancel               // POST, DELETE, then the /events stream
	opQuery                // GET /v1/query while submissions run
)

// svcOp is one scheduled request and, after the run, its outcome.
type svcOp struct {
	kind  opKind
	phase int
	due   time.Duration // from the schedule's start
	job   *experiments.JobSpec
	spec  *experiments.Spec
	doc   string

	id         string
	status     string
	start, end time.Time
	acceptMs   float64
	err        error
}

func (o *svcOp) submits() bool { return o.kind == opJob || o.kind == opSpec }

// body is the POST /v1/jobs document of a submission.
func (o *svcOp) body() []byte {
	var b []byte
	if o.spec != nil {
		b, _ = json.Marshal(server.SubmitRequest{Spec: o.spec})
	} else {
		b, _ = json.Marshal(server.SubmitRequest{Job: o.job})
	}
	return b
}

// svcPhase is one stretch of the schedule at a fixed submit rate.
type svcPhase struct {
	start, dur time.Duration
	rate       float64 // submissions per second
}

// makeSchedule generates the arrival schedule of one run from the seed.
// part keeps the fresh jobs of a second schedule in the same run fresh.
func makeSchedule(seed int64, part int, seconds time.Duration) ([]svcPhase, []*svcOp) {
	rng := rand.New(rand.NewSource(seed*7 + int64(part)))
	nominal := time.Duration(float64(seconds) * nominalShare)
	phases := []svcPhase{{0, nominal, nominalSubmitsPerS}}
	stepDur := (seconds - nominal) / time.Duration(len(stepFactors))
	for i, f := range stepFactors {
		phases = append(phases, svcPhase{nominal + time.Duration(i)*stepDur, stepDur, nominalSubmitsPerS * f})
	}
	nextSeed := int64(1 + part*1_000_000)
	fresh := func() int64 { nextSeed++; return nextSeed }
	var pool []*experiments.JobSpec
	var ops []*svcOp
	specs := 0
	for pi, ph := range phases {
		at := func(i int, rate float64) time.Duration {
			slot := (float64(i) + 0.25 + 0.5*rng.Float64()) / rate
			return ph.start + time.Duration(slot*float64(time.Second))
		}
		n := int(ph.rate * ph.dur.Seconds())
		for i := 0; i < n; i++ {
			op := &svcOp{phase: pi, due: at(i, ph.rate)}
			switch u := rng.Float64(); {
			case u < 0.04:
				op.kind = opCancel
				js := smallJob(fresh(), fraction(rng), loaders[rng.Intn(2)])
				js.Scale, js.Epochs = 0.002, 3
				op.job = &js
			case u < 0.10:
				op.kind = opSpec
				specs++
				op.spec = gridSpec(fmt.Sprintf("svc-sweep-%d-%d", part, specs), rng, fresh(), 1)
			case u < 0.55 || len(pool) == 0:
				op.kind = opJob
				js := smallJob(fresh(), fraction(rng), loaders[rng.Intn(2)])
				op.job = &js
				pool = append(pool, op.job)
			default:
				op.kind = opJob
				op.job = pool[rng.Intn(len(pool))]
			}
			ops = append(ops, op)
		}
		for i, m := 0, int(queriesPerS*ph.dur.Seconds()); i < m; i++ {
			ops = append(ops, &svcOp{kind: opQuery, phase: pi, due: at(i, queriesPerS), doc: queryDocs[rng.Intn(len(queryDocs))]})
		}
	}
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].due < ops[j].due })
	return phases, ops
}

// serviceMixed is one single-node job server with a WAL (fsync per
// append) and the result memo, driven by the open-loop schedule.
type serviceMixed struct {
	svc    *service
	client *http.Client
	conns  int
	ops    []*svcOp // every op sent, across schedules
}

func setupService(ctx context.Context, r *runner, dir string) (instance, error) {
	conns := runtime.NumCPU()
	svc, err := startService(server.Config{
		Workers: conns, QueueDepth: 1 << 14, MaxRecords: 1 << 20,
		WALDir: filepath.Join(dir, "wal"), WALFsync: wal.FsyncAlways,
		MemoDir: filepath.Join(dir, "memo"),
	}, nil)
	if err != nil {
		return nil, err
	}
	w := &serviceMixed{svc: svc, client: newClient(conns), conns: conns}
	if _, err := get(ctx, w.client, svc.url+"/healthz"); err != nil {
		w.close()
		return nil, err
	}
	return w, nil
}

func (w *serviceMixed) close() {
	w.client.CloseIdleConnections()
	w.svc.close()
}

// schedRun is what one schedule measured.
type schedRun struct {
	phases []svcPhase
	ops    []*svcOp
	t0     time.Time
	cpu    float64 // process CPU over the nominal phase
	total  spent   // over the whole schedule
	rss    float64
	gor    int
	before map[string]float64
	after  map[string]float64
}

func (w *serviceMixed) measure(ctx context.Context, r *runner) error {
	if !r.o.trace {
		run, err := w.runSchedule(ctx, r, 0, r.o.seconds, obs.Span{})
		if err != nil {
			return err
		}
		w.report(r, run)
		return w.verify(ctx, r, nil, obs.Span{})
	}
	// A traced run plays the schedule twice, the first time untraced: the
	// difference of their nominal-phase walls is the tracing overhead.
	plain, err := w.runSchedule(ctx, r, 0, r.o.seconds, obs.Span{})
	if err != nil {
		return err
	}
	sp := r.root.Start("bench.schedule")
	traced, err := w.runSchedule(ctx, r, 1, r.o.seconds, sp)
	sp.End()
	if err != nil {
		return err
	}
	w.report(r, traced)
	r.res.set("obs.tracing_overhead_s", nominalWall(traced)-nominalWall(plain), 1)
	lsp := r.root.Start("bench.layers")
	defer lsp.End()
	return w.verify(ctx, r, traced, lsp)
}

// runSchedule plays one generated schedule against the server: a
// dispatcher releases each op at its due time and conns executors send
// them, so a slow server delays later ops instead of thinning the load.
func (w *serviceMixed) runSchedule(ctx context.Context, r *runner, part int, seconds time.Duration, sp obs.Span) (*schedRun, error) {
	phases, ops := makeSchedule(r.o.seed, part, seconds)
	run := &schedRun{phases: phases, ops: ops}
	var err error
	if run.before, err = scrape(ctx, w.client, w.svc.url); err != nil {
		return nil, err
	}
	ch := make(chan *svcOp, len(ops))
	var wg sync.WaitGroup
	for i := 0; i < w.conns; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for op := range ch {
				w.exec(ctx, op, sp)
			}
		}()
	}
	smp := startSampler()
	u0 := readUsage()
	run.t0 = u0.at
	nominalDone := false
	for _, op := range ops {
		if !nominalDone && op.phase > 0 {
			sleepUntil(run.t0.Add(phases[1].start))
			run.cpu = readUsage().cpu - u0.cpu
			nominalDone = true
		}
		sleepUntil(run.t0.Add(op.due))
		ch <- op
	}
	close(ch)
	wg.Wait()
	if !nominalDone {
		run.cpu = readUsage().cpu - u0.cpu
	}
	run.total = since(u0)
	run.rss, run.gor = smp.finish()
	w.ops = append(w.ops, ops...)
	for _, op := range ops {
		r.res.op(op.err)
	}
	if run.after, err = scrape(ctx, w.client, w.svc.url); err != nil {
		return nil, err
	}
	return run, nil
}

func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// exec sends one op and records its outcome.
func (w *serviceMixed) exec(ctx context.Context, op *svcOp, sp obs.Span) {
	base := w.svc.url
	op.start = time.Now()
	defer func() { op.end = time.Now() }()
	if op.kind == opQuery {
		s := sp.Start("GET /v1/query")
		body, err := get(ctx, w.client, base+"/v1/query?q="+url.QueryEscape(op.doc))
		s.End()
		if err == nil && bytes.Contains(body, []byte(`{"error":`)) {
			err = fmt.Errorf("query stream aborted: %s", firstLine(body))
		}
		op.err = err
		return
	}
	s := sp.Start("POST /v1/jobs")
	t := time.Now()
	op.id, op.err = submit(ctx, w.client, base, op.body())
	op.acceptMs = time.Since(t).Seconds() * 1e3
	s.End()
	if op.err != nil {
		return
	}
	if op.kind == opCancel {
		s = sp.Start("DELETE /v1/jobs/{id}")
		_, op.err = do(ctx, w.client, http.MethodDelete, base+"/v1/jobs/"+op.id, http.StatusOK, http.StatusConflict)
		s.End()
		if op.err != nil {
			return
		}
	}
	s = sp.Start("GET /v1/jobs/{id}/events")
	op.status, op.err = waitDone(ctx, w.client, base, op.id)
	s.End()
	if op.err == nil && op.status != "completed" && !(op.kind == opCancel && op.status == "cancelled") {
		op.err = fmt.Errorf("job %s ended %s", op.id, op.status)
	}
}

// latencyMs is an op's time from when it was due to its last byte.
func (run *schedRun) latencyMs(op *svcOp) float64 {
	return op.end.Sub(run.t0.Add(op.due)).Seconds() * 1e3
}

func (run *schedRun) lagMs(op *svcOp) float64 {
	return op.start.Sub(run.t0.Add(op.due)).Seconds() * 1e3
}

// nominalWall is the nominal phase's wall time: from its start to the
// last completion of an op due in it.
func nominalWall(run *schedRun) float64 {
	var last time.Time
	for _, op := range run.ops {
		if op.phase == 0 && op.end.After(last) {
			last = op.end
		}
	}
	return last.Sub(run.t0).Seconds()
}

// phaseStats are the latencies of one phase's ops.
type phaseStats struct {
	submitMs, queryMs, lagMs, acceptMs []float64
	failed                             int
	lastEnd                            time.Time
	lagGrowing                         bool
}

func (run *schedRun) phaseStats(p int) phaseStats {
	var ps phaseStats
	var lags []float64
	for _, op := range run.ops {
		if op.phase != p {
			continue
		}
		lags = append(lags, run.lagMs(op))
		if op.err != nil {
			ps.failed++
			continue
		}
		if op.end.After(ps.lastEnd) {
			ps.lastEnd = op.end
		}
		switch {
		case op.kind == opQuery:
			ps.queryMs = append(ps.queryMs, run.latencyMs(op))
		case op.submits():
			ps.submitMs = append(ps.submitMs, run.latencyMs(op))
			ps.acceptMs = append(ps.acceptMs, op.acceptMs)
		}
	}
	ps.lagMs = lags
	// The generator falls behind when the lag of the phase's last quarter
	// exceeds that of its first quarter by more than 20 ms.
	if q := len(lags) / 4; q > 0 {
		ps.lagGrowing = median(lags[len(lags)-q:]) > median(lags[:q])+20
	}
	return ps
}

// report records the end-to-end metrics from the nominal phase and the
// highest rate step that meets the SLO.
func (w *serviceMixed) report(r *runner, run *schedRun) {
	nom := run.phaseStats(0)
	r.res.set("wall_s", nominalWall(run), 1)
	r.res.set("cpu_s", run.cpu, 1)
	r.res.set("peak_rss_mib", run.rss, 1)
	r.res.set("op_p50_ms", quantile(nom.submitMs, 0.5), len(nom.submitMs))
	r.res.set("op_p99_ms", quantile(nom.submitMs, 0.99), len(nom.submitMs))
	r.res.set("server.query_p50_ms", quantile(nom.queryMs, 0.5), len(nom.queryMs))
	r.res.set("server.query_p99_ms", quantile(nom.queryMs, 0.99), len(nom.queryMs))
	r.res.set("server.accept_p50_ms", quantile(nom.acceptMs, 0.5), len(nom.acceptMs))
	r.res.set("gen.lag_p99_ms", quantile(nom.lagMs, 0.99), len(nom.lagMs))

	// Phases count in rate order until the first one that misses the SLO.
	best, submits, inSLO := 0.0, 0, true
	for p := range run.phases {
		ps := run.phaseStats(p)
		inSLO = inSLO && ps.failed == 0 && !ps.lagGrowing && len(ps.submitMs) > 0 &&
			quantile(ps.submitMs, 0.9) <= float64(sloP90.Milliseconds())
		rate := float64(len(ps.submitMs)) / ps.lastEnd.Sub(run.t0.Add(run.phases[p].start)).Seconds()
		if inSLO {
			best, submits = rate, len(ps.submitMs)
		}
		fmt.Fprintf(r.log, "perfbench: phase %d at %.0f submits/s: achieved %.1f/s, p90 %.1f ms, lag p50 %.1f ms, lag growing %v, failed %d\n",
			p, run.phases[p].rate, rate, quantile(ps.submitMs, 0.9), median(ps.lagMs), ps.lagGrowing, ps.failed)
	}
	r.res.set("server.max_rate_in_slo_per_s", best, submits)

	c := delta(run.before, run.after)
	rejected := 0
	for _, op := range run.ops {
		var ref *refusal
		if errors.As(op.err, &ref) && (ref.code == http.StatusServiceUnavailable || ref.code == http.StatusTooManyRequests) {
			rejected++
		}
	}
	r.res.set("server.rejected", float64(rejected), len(run.ops))
	jobs := c["stallserved_jobs_submitted_total"]
	v, n := c.meanMs("stallserved_case_seconds")
	r.res.set("server.case_mean_ms", v, n)
	v, n = c.meanMs("stallserved_queue_wait_seconds")
	r.res.set("server.queue_wait_mean_ms", v, n)
	hits, misses := c["stallserved_memo_hits_total"], c["stallserved_memo_misses_total"]
	r.res.set("memo.hit_ratio", ratio(hits, hits+misses), int(hits+misses))
	v, n = c.meanMs("stallserved_memo_lookup_seconds")
	r.res.set("memo.lookup_mean_ms", v, n)
	r.res.set("wal.appends_per_job", ratio(c["stallserved_wal_appends_total"], jobs), int(jobs))
	v, n = c.meanMs("stallserved_wal_fsync_seconds")
	r.res.set("wal.fsync_mean_ms", v, n)
	r.res.set("events.published", c["stallserved_events_published_total"], int(jobs))
	r.res.set("events.dropped", c["stallserved_events_dropped_total"], int(jobs))
	if r.o.trace {
		r.res.setRuntime(run.total, 1, run.gor)
	}
}

// verify checks the service's outputs against direct runs. Every
// completed job's cases, computed directly, must make /v1/query answer
// each query document byte for byte as query.Engine does over them, and
// sampled jobs must return exactly the direct run's result or report.
// Given the traced schedule, it then replays the same inputs into single
// layers under sp.
func (w *serviceMixed) verify(ctx context.Context, r *runner, traced *schedRun, sp obs.Span) error {
	body, err := get(ctx, w.client, w.svc.url+"/v1/jobs")
	if err != nil {
		return err
	}
	var list struct {
		Jobs []struct {
			ID     string `json:"id"`
			Status string `json:"status"`
		} `json:"jobs"`
	}
	if err := json.Unmarshal(body, &list); err != nil {
		return err
	}
	byID := map[string]*svcOp{}
	for _, op := range w.ops {
		if op.id != "" {
			byID[op.id] = op
		}
	}
	ts := newTrainerStats()
	results := map[experiments.JobSpec]*trainer.Result{}
	var cfgs []trainer.Config
	var cases []*experiments.CaseResult
	var jobs, sweeps []*svcOp
	expected := map[string][]byte{} // job ID -> its result or report, as served
	for _, j := range list.Jobs {
		op := byID[j.ID]
		if op == nil {
			return fmt.Errorf("server lists job %s that was never submitted", j.ID)
		}
		if j.Status != "completed" {
			continue
		}
		if op.spec != nil {
			cells, err := experiments.EnumerateCases(op.spec, experiments.Options{})
			if err != nil {
				return err
			}
			rep, err := experiments.RunSpecProgress(ctx, op.spec, experiments.Options{}, func(c experiments.CaseProgress) {
				ts.loader = loaderName(cells[c.Index].Job)
			}, ts)
			if err != nil {
				return err
			}
			cases = append(cases, rep.Cases...)
			if expected[j.ID], err = json.Marshal(wireOf(rep)); err != nil {
				return err
			}
			sweeps = append(sweeps, op)
			continue
		}
		cfg, err := op.job.Build(experiments.Options{})
		if err != nil {
			return err
		}
		res, ok := results[*op.job]
		if !ok {
			ts.loader = loaderName(*op.job)
			if res, err = trainer.RunContext(ctx, cfg, ts); err != nil {
				return err
			}
			results[*op.job] = res
			cfgs = append(cfgs, cfg)
		}
		cases = append(cases, experiments.CaseFromConfig(j.ID, cfg, res))
		if expected[j.ID], err = json.Marshal(res); err != nil {
			return err
		}
		if op.kind == opJob {
			jobs = append(jobs, op)
		}
	}

	st := query.NewStore()
	st.AddCases(cases)
	for _, doc := range queryDocs {
		var want bytes.Buffer
		if _, err := runQuery(ctx, st, doc, &want); err != nil {
			return err
		}
		got, err := get(ctx, w.client, w.svc.url+"/v1/query?q="+url.QueryEscape(doc))
		if err == nil {
			err = sameBytes("/v1/query "+doc, got, r.corrupted("query", want.Bytes()))
		}
		r.res.op(err)
	}

	rng := rand.New(rand.NewSource(r.o.seed))
	rng.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	rng.Shuffle(len(sweeps), func(i, j int) { sweeps[i], sweeps[j] = sweeps[j], sweeps[i] })
	sample := append(jobs[:min(len(jobs), 16)], sweeps[:min(len(sweeps), 4)]...)
	for _, op := range sample {
		r.res.op(w.checkJob(ctx, op, r.corrupted("job", expected[op.id])))
	}

	if traced == nil {
		return nil
	}
	ts.report(r.res)
	replaySim(sp, r.res, 64, 20000)
	replayData(sp, r.res, inputsOf(cfgs, 1))
	if err := replayQuery(ctx, sp, r.res, cases, 3); err != nil {
		return err
	}
	c := delta(traced.before, traced.after)
	q := c["stallserved_queries_total"]
	r.res.set("query.rows_per_query", ratio(c["stallserved_query_rows_total"], q), int(q))
	return nil
}

// checkJob compares one job's served result (or report, for a sweep)
// with the direct run's.
func (w *serviceMixed) checkJob(ctx context.Context, op *svcOp, want []byte) error {
	body, err := get(ctx, w.client, w.svc.url+"/v1/jobs/"+op.id)
	if err != nil {
		return err
	}
	var v struct {
		Result json.RawMessage `json:"result"`
		Report json.RawMessage `json:"report"`
	}
	if err := json.Unmarshal(body, &v); err != nil {
		return err
	}
	raw := v.Result
	if op.spec != nil {
		raw = v.Report
	}
	var got bytes.Buffer
	if err := json.Compact(&got, raw); err != nil {
		return fmt.Errorf("job %s: %w", op.id, err)
	}
	return sameBytes("job "+op.id+" output", got.Bytes(), want)
}
