package main

import (
	"context"
	"fmt"
	"io"
	"time"

	"datastall/internal/cache"
	"datastall/internal/dataset"
	"datastall/internal/experiments"
	"datastall/internal/obs"
	"datastall/internal/pagecache"
	"datastall/internal/query"
	"datastall/internal/sim"
	"datastall/internal/trainer"
)

// trainerStats is a trainer.Observer that times each training run, and
// each epoch of it, on the host clock. It serves one run at a time: the
// caller sets loader before each run starts.
type trainerStats struct {
	loader               string
	jobStart, epochStart time.Time

	cases    int
	samples  int64
	host     time.Duration
	caseHost map[string][]float64 // seconds per run, by loader
	cold     []float64            // seconds of each run's first epoch
	warm     []float64            // seconds of every later epoch
}

func newTrainerStats() *trainerStats {
	return &trainerStats{caseHost: map[string][]float64{}}
}

// Observe implements trainer.Observer.
func (t *trainerStats) Observe(ev trainer.Event) {
	now := time.Now()
	switch e := ev.(type) {
	case trainer.JobStarted:
		t.jobStart = now
		t.cases++
	case trainer.EpochStarted:
		t.epochStart = now
	case trainer.EpochEnded:
		d := now.Sub(t.epochStart).Seconds()
		if e.Epoch == 0 {
			t.cold = append(t.cold, d)
		} else {
			t.warm = append(t.warm, d)
		}
		t.samples += int64(e.Stats.Samples)
	case trainer.JobEnded:
		d := now.Sub(t.jobStart)
		t.host += d
		t.caseHost[t.loader] = append(t.caseHost[t.loader], d.Seconds())
	}
}

// report records the trainer-layer metrics.
func (t *trainerStats) report(res *result) {
	res.set("trainer.cases", float64(t.cases), t.cases)
	res.set("trainer.sim_samples", float64(t.samples), t.cases)
	if t.samples > 0 {
		res.set("trainer.host_ns_per_sim_sample", float64(t.host.Nanoseconds())/float64(t.samples), t.cases)
	}
	for _, l := range []string{"dali-shuffle", "coordl"} {
		xs := t.caseHost[l]
		res.set("trainer.case_host_s."+l, mean(xs), len(xs))
	}
	res.set("trainer.epoch_host_s.cold", mean(t.cold), len(t.cold))
	res.set("trainer.epoch_host_s.warm", mean(t.warm), len(t.warm))
}

// loaderName is the loader a job spec resolves to.
func loaderName(js experiments.JobSpec) string {
	if js.Loader == "" {
		return "dali-shuffle"
	}
	return js.Loader
}

// replaySim times the engine's callback event loop: procs Spawn'd
// processes each re-arm themselves rounds times with WakeAfter, and a
// Schedule'd timer chain runs beside them.
func replaySim(sp obs.Span, res *result, procs, rounds int) {
	s := sp.Start("sim.Engine.Run")
	defer s.End()
	e := sim.New()
	for i := 0; i < procs; i++ {
		k, d := 0, float64(1+i%7)*1e-3
		e.Spawn("replay", func(p *sim.Proc) {
			if k < rounds {
				k++
				p.WakeAfter(d)
			}
		})
	}
	ticks := 0
	var tick func()
	tick = func() {
		if ticks < rounds {
			ticks++
			e.Schedule(2e-3, tick)
		}
	}
	e.Schedule(0, tick)
	events := procs*(rounds+1) + rounds + 1
	t0 := time.Now()
	e.Run()
	res.set("sim.dispatch_ns_per_event", float64(time.Since(t0).Nanoseconds())/float64(events), events)
}

// replayInput is one dataset of the workload with the cache capacities
// its cases use.
type replayInput struct {
	ds   *dataset.Dataset
	seed int64
	caps []float64 // bytes
}

// inputsOf collects the distinct datasets of a workload's cases with
// their cache capacities, at most max datasets.
func inputsOf(cfgs []trainer.Config, max int) []replayInput {
	var out []replayInput
	idx := map[string]int{}
	seen := map[[2]float64]bool{}
	for _, c := range cfgs {
		if c.Dataset == nil || c.CacheBytes <= 0 {
			continue
		}
		key := fmt.Sprintf("%s/%d", c.Dataset.Name, c.Dataset.NumItems)
		i, ok := idx[key]
		if !ok {
			if len(out) == max {
				continue
			}
			i = len(out)
			idx[key] = i
			out = append(out, replayInput{ds: c.Dataset, seed: c.Seed})
		}
		k := [2]float64{float64(i), c.CacheBytes}
		if !seen[k] {
			seen[k] = true
			out[i].caps = append(out[i].caps, c.CacheBytes)
		}
	}
	return out
}

// replayData replays the workload's datasets into the dataset, page-cache
// and MinIO layers: it generates two epoch orders, sums every item's size,
// and runs the second order through each cache after the first filled it,
// at every capacity the workload's cases use.
func replayData(sp obs.Span, res *result, inputs []replayInput) {
	var orderMs, itemNs []float64
	var pcNs, pcHit, mioNs, mioHit []float64
	sink := 0.0
	for _, in := range inputs {
		d := in.ds
		sampler := dataset.NewRandomSampler(dataset.FullShard(d), in.seed)
		s := sp.Start("dataset.EpochOrderInto")
		t0 := time.Now()
		first := sampler.EpochOrderInto(0, nil)
		second := sampler.EpochOrderInto(1, nil)
		orderMs = append(orderMs, time.Since(t0).Seconds()*1e3/2)
		s.End()

		s = sp.Start("dataset.ItemBytes")
		t0 = time.Now()
		for _, id := range second {
			sink += d.ItemBytes(id)
		}
		itemNs = append(itemNs, float64(time.Since(t0).Nanoseconds())/float64(len(second)))
		s.End()

		for _, capBytes := range in.caps {
			s = sp.Start("pagecache.Lookup")
			pc := pagecache.New(pagecache.TwoList, capBytes, in.seed)
			ns, hit := replayCache(pc, d, first, second)
			pcNs, pcHit = append(pcNs, ns), append(pcHit, hit)
			s.End()

			s = sp.Start("cache.MinIO.Lookup")
			ns, hit = replayCache(cache.NewMinIOSized(capBytes, d.NumItems), d, first, second)
			mioNs, mioHit = append(mioNs, ns), append(mioHit, hit)
			s.End()
		}
	}
	if sink < 0 {
		panic("negative dataset size")
	}
	res.set("dataset.epoch_order_ms", mean(orderMs), len(orderMs))
	res.set("dataset.item_bytes_ns", mean(itemNs), len(itemNs))
	res.set("pagecache.access_ns", mean(pcNs), len(pcNs))
	res.set("pagecache.hit_ratio", mean(pcHit), len(pcHit))
	res.set("cache.minio_access_ns", mean(mioNs), len(mioNs))
	res.set("cache.minio_hit_ratio", mean(mioHit), len(mioHit))
}

// itemCache is the part of a cache the replay drives: look an item up and
// insert it on a miss, as the fetch path does.
type itemCache interface {
	Lookup(dataset.ItemID) bool
	Insert(dataset.ItemID, float64)
	Hits() int64
	Misses() int64
	ResetStats()
}

// replayCache fills c with the first order, then times the second and
// returns ns per access and the hit ratio over it.
func replayCache(c itemCache, d *dataset.Dataset, first, second []dataset.ItemID) (float64, float64) {
	for _, id := range first {
		if !c.Lookup(id) {
			c.Insert(id, d.ItemBytes(id))
		}
	}
	c.ResetStats()
	t0 := time.Now()
	for _, id := range second {
		if !c.Lookup(id) {
			c.Insert(id, d.ItemBytes(id))
		}
	}
	ns := float64(time.Since(t0).Nanoseconds()) / float64(len(second))
	return ns, float64(c.Hits()) / float64(c.Hits()+c.Misses())
}

// queryDocs are the analytic queries the benchmark runs: through
// /v1/query on service-mixed, and straight into query.Engine as a replay
// on every workload.
var queryDocs = []string{
	`{"group_by":["loader"],"aggs":[{"op":"count","as":"n"},{"op":"avg","col":"stall_pct","as":"avg_stall_pct"},{"op":"max","col":"epoch_s","as":"max_epoch_s"}]}`,
	`{"where":[{"col":"stall_pct","op":"lt","value":5}],"group_by":["servers","gpus"],"aggs":[{"op":"min","col":"cache_gib","as":"best_cache_gib"},{"op":"count","as":"candidates"}],"order_by":[{"col":"servers"},{"col":"gpus"}]}`,
	`{"where":[{"col":"loader","op":"eq","value":"coordl"}],"select":["case_id","spec","model","cache_gib","epoch_s","hit_pct"],"order_by":[{"col":"epoch_s","desc":true}],"limit":20}`,
	`{"from":"epochs","group_by":["epoch"],"aggs":[{"op":"avg","col":"epoch_stall_pct","as":"stall_pct"},{"op":"sum","col":"disk_gib","as":"disk_gib"},{"op":"count","as":"n"}]}`,
}

// runQuery executes one query document over cases and returns its NDJSON.
func runQuery(ctx context.Context, st *query.Store, doc string, w io.Writer) (int, error) {
	q, err := query.ParseQuery([]byte(doc))
	if err != nil {
		return 0, err
	}
	rows, err := query.New(st).Run(ctx, q)
	if err != nil {
		return 0, err
	}
	return query.WriteNDJSON(w, rows)
}

// replayQuery runs every query document over the workload's cases,
// reps times each, straight into the query engine.
func replayQuery(ctx context.Context, sp obs.Span, res *result, cases []*experiments.CaseResult, reps int) error {
	st := query.NewStore()
	st.AddCases(cases)
	var ms []float64
	rows := 0
	for i := 0; i < reps; i++ {
		for _, doc := range queryDocs {
			s := sp.Start("query.Engine.Run")
			t0 := time.Now()
			n, err := runQuery(ctx, st, doc, io.Discard)
			ms = append(ms, time.Since(t0).Seconds()*1e3)
			s.End()
			if err != nil {
				return err
			}
			rows += n
		}
	}
	res.set("query.exec_ms", median(ms), len(ms))
	res.set("query.rows_per_query", float64(rows)/float64(len(ms)), len(ms))
	return nil
}
