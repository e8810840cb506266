package core

import (
	"testing"

	"datastall/internal/cluster"
	"datastall/internal/dataset"
	"datastall/internal/loader"
	"datastall/internal/sim"
	"datastall/internal/stats"
)

// Compile-time checks: CoorDL fetchers satisfy the loader interface.
var (
	_ loader.Fetcher = (*MinIOFetcher)(nil)
	_ loader.Fetcher = (*PartitionedFetcher)(nil)
)

func testDataset(n int) *dataset.Dataset {
	return &dataset.Dataset{Name: "t", NumItems: n, TotalBytes: float64(n) * 1000}
}

// step is one step of a scripted test process: it reports false when the
// process must wait (its wake-up is registered) and is retried when the
// process resumes.
type step func(p *sim.Proc) bool

// script spawns a process that runs steps in order.
func script(e *sim.Engine, name string, steps ...step) {
	i := 0
	e.Spawn(name, func(p *sim.Proc) {
		for i < len(steps) {
			if !steps[i](p) {
				return
			}
			i++
		}
	})
}

// sleep waits d seconds.
func sleep(d float64) step {
	slept := false
	return func(p *sim.Proc) bool {
		if slept {
			return true
		}
		slept = true
		p.WakeAfter(d)
		return false
	}
}

// do runs fn inline.
func do(fn func(p *sim.Proc)) step {
	return func(p *sim.Proc) bool { fn(p); return true }
}

// fetch fetches items on server through f, records the result in r (may
// be nil) and waits for the batch's device ops.
func fetch(f loader.Fetcher, server int, items []dataset.ItemID, r *loader.FetchResult) step {
	var ops sim.Ops
	started := false
	return func(p *sim.Proc) bool {
		if !started {
			started = true
			res := f.FetchBatch(&ops, server, items)
			if r != nil {
				*r = res
			}
		}
		return ops.Run(p)
	}
}

// put stages b.
func put(s *StagingArea, b *Batch) step {
	return func(p *sim.Proc) bool { return s.TryPut(p, b) }
}

// get consumes batch index i for job (GetAny over the window [i, i+1)).
func get(s *StagingArea, job, i int, got func(b *Batch)) step {
	return func(p *sim.Proc) bool {
		b, ok := s.TryGetAny(p, job, i, i+1)
		if ok && got != nil {
			got(b)
		}
		return ok
	}
}

func TestMinIOFetcherChargesDevices(t *testing.T) {
	e := sim.New()
	cl := cluster.Build(e, cluster.ConfigSSDV100(), 1)
	d := testDataset(100)
	f := NewMinIOFetcher(d, cl, 50*1000)
	items := []dataset.ItemID{0, 1, 2}
	var r1, r2 loader.FetchResult
	script(e, "x",
		fetch(f, 0, items, &r1), // cold: all disk
		fetch(f, 0, items, &r2), // warm: all memory
	)
	e.Run()
	if r1.Misses != 3 || r1.DiskBytes != 3000 {
		t.Fatalf("cold fetch: %+v", r1)
	}
	if r2.Hits != 3 || r2.MemBytes != 3000 || r2.DiskBytes != 0 {
		t.Fatalf("warm fetch: %+v", r2)
	}
	if cl.Servers[0].Disk.TotalBytes() != 3000 {
		t.Fatalf("disk bytes %v", cl.Servers[0].Disk.TotalBytes())
	}
}

// warm populates each server's partition of f's cache from its owner
// shard.
func warm(e *sim.Engine, f *PartitionedFetcher) {
	var steps []step
	for s, sh := range f.OwnerShards() {
		steps = append(steps, fetch(f, s, sh.Items, nil))
	}
	script(e, "warm", steps...)
	e.Run()
}

func TestPartitionedFetcherRemotePath(t *testing.T) {
	e := sim.New()
	cl := cluster.Build(e, cluster.ConfigSSDV100(), 2)
	d := testDataset(1000)
	f := NewPartitionedFetcher(d, cl, d.TotalBytes/2, 1) // aggregate = dataset
	// Warm both caches via owner shards.
	warm(e, f)

	// Steady state: server 0 fetches random items; no disk traffic.
	// The same engine keeps running; devices accumulate.
	var r loader.FetchResult
	all := make([]dataset.ItemID, 1000)
	for i := range all {
		all[i] = dataset.ItemID(i)
	}
	disk0 := cl.Servers[0].Disk.TotalBytes()
	script(e, "steady", fetch(f, 0, all, &r))
	e.Run()
	if r.Misses != 0 {
		t.Fatalf("steady-state misses: %+v", r)
	}
	if r.RemoteHit == 0 || r.Hits == 0 {
		t.Fatalf("expected both local and remote hits: %+v", r)
	}
	if cl.Servers[0].Disk.TotalBytes() != disk0 {
		t.Fatal("steady-state fetch touched local storage")
	}
	if cl.Fabric.NICs[1].TotalBytes() == 0 {
		t.Fatal("remote fetch did not use the serving server's NIC")
	}
}

func TestOwnerShardsCoverDataset(t *testing.T) {
	e := sim.New()
	cl := cluster.Build(e, cluster.ConfigSSDV100(), 3)
	d := testDataset(999)
	f := NewPartitionedFetcher(d, cl, d.TotalBytes, 1)
	total := 0
	for _, sh := range f.OwnerShards() {
		total += len(sh.Items)
	}
	if total != 999 {
		t.Fatalf("owner shards cover %d of 999", total)
	}
}

func TestStagingAreaExactlyOncePerJob(t *testing.T) {
	e := sim.New()
	s := NewStagingArea(e, 2, 1e9)
	var consumed [2][]int
	var prod []step
	for i := 0; i < 5; i++ {
		prod = append(prod, sleep(1), put(s, &Batch{Index: i, Owner: 0, PreparedBytes: 10}))
	}
	script(e, "producer", prod...)
	for j := 0; j < 2; j++ {
		var cons []step
		for i := 0; i < 5; i++ {
			cons = append(cons, get(s, j, i, func(b *Batch) {
				consumed[j] = append(consumed[j], b.Index)
			}))
		}
		script(e, "consumer", cons...)
	}
	e.Run()
	for j := 0; j < 2; j++ {
		if len(consumed[j]) != 5 {
			t.Fatalf("job %d consumed %d", j, len(consumed[j]))
		}
	}
	p, c, ev := s.Counters()
	if p != 5 || c != 10 || ev != 5 {
		t.Fatalf("counters: produced=%d consumed=%d evicted=%d", p, c, ev)
	}
	if s.UsedBytes() != 0 {
		t.Fatalf("staging leaked %v bytes", s.UsedBytes())
	}
}

func TestStagingAreaEvictsOnlyAfterAllJobsUse(t *testing.T) {
	e := sim.New()
	s := NewStagingArea(e, 3, 1e9)
	script(e, "p", put(s, &Batch{Index: 0, PreparedBytes: 7}))
	got := 0
	for j := 0; j < 3; j++ {
		script(e, "c", sleep(float64(j+1)), get(s, j, 0, func(*Batch) {
			got++
			if j < 2 && s.UsedBytes() == 0 {
				t.Errorf("batch evicted before all jobs consumed it")
			}
		}))
	}
	e.Run()
	if got != 3 || s.UsedBytes() != 0 {
		t.Fatalf("got=%d used=%v", got, s.UsedBytes())
	}
}

func TestStagingAreaCapacityBlocksProducer(t *testing.T) {
	e := sim.New()
	s := NewStagingArea(e, 1, 25) // room for 2 batches of 10
	var putTimes []float64
	var prod, cons []step
	for i := 0; i < 3; i++ {
		prod = append(prod, put(s, &Batch{Index: i, PreparedBytes: 10}),
			do(func(p *sim.Proc) { putTimes = append(putTimes, p.Now()) }))
		cons = append(cons, sleep(10), get(s, 0, i, nil))
	}
	script(e, "p", prod...)
	script(e, "c", cons...)
	e.Run()
	if putTimes[2] != 10 {
		t.Fatalf("third put at %v, want blocked until 10", putTimes[2])
	}
	if s.PeakBytes() > 25 {
		t.Fatalf("peak %v exceeded capacity", s.PeakBytes())
	}
}

func TestStagingMemTrace(t *testing.T) {
	e := sim.New()
	s := NewStagingArea(e, 1, 1e9)
	s.EnableMemTrace("staging")
	script(e, "p", put(s, &Batch{Index: 0, PreparedBytes: 10}), sleep(1), get(s, 0, 0, nil))
	e.Run()
	if s.MemTrace.Len() != 2 {
		t.Fatalf("trace points %d, want 2", s.MemTrace.Len())
	}
}

// TestStagingAreaEpochGate: producers may not stage epoch e until every
// live job finished epoch e-1; removing a job shrinks the quorum.
func TestStagingAreaEpochGate(t *testing.T) {
	e := sim.New()
	s := NewStagingArea(e, 2, 1e9)
	var opened float64
	script(e, "p", func(p *sim.Proc) bool { return s.TryEpochStart(p, 1) },
		do(func(p *sim.Proc) { opened = p.Now() }))
	script(e, "jobs", sleep(1), do(func(*sim.Proc) { s.JobEpochDone(0) }),
		sleep(1), do(func(*sim.Proc) { s.RemoveJob(1) }))
	e.Run()
	if opened != 2 {
		t.Fatalf("epoch 1 opened at %v, want 2 (job 0 done at 1, job 1 removed at 2)", opened)
	}
	if s.LiveJobs() != 1 {
		t.Fatalf("live jobs %d, want 1", s.LiveJobs())
	}
}

func TestFailureDetectorRecoversDeadJob(t *testing.T) {
	e := sim.New()
	nJobs := 2
	s := NewStagingArea(e, nJobs, 1e9)
	// Job 0 produces even batches; job 1 (owner of odd batches) dies
	// after batch 1. Consumers need batches 0..5.
	dead := false
	var prod0 []step
	for i := 0; i < 6; i += 2 {
		prod0 = append(prod0, sleep(1), put(s, &Batch{Index: i, Owner: 0, PreparedBytes: 1}))
	}
	script(e, "producer0", prod0...)
	script(e, "producer1", sleep(1), put(s, &Batch{Index: 1, Owner: 1, PreparedBytes: 1}),
		do(func(*sim.Proc) { dead = true })) // dies before batch 3
	fd := &FailureDetector{
		Staging: s,
		Timeout: 5,
		Alive:   func(job int) bool { return !(job == 1 && dead) },
		Recover: func(job int) {
			var rec []step
			for i := 3; i < 6; i += 2 {
				rec = append(rec, sleep(1), put(s, &Batch{Index: i, Owner: job, PreparedBytes: 1}))
			}
			script(e, "recovery", rec...)
		},
		Horizon: 200,
	}
	e.Spawn("detector", fd.Run)
	done := make([]bool, nJobs)
	for j := 0; j < nJobs; j++ {
		var cons []step
		for i := 0; i < 6; i++ {
			cons = append(cons, get(s, j, i, nil))
		}
		cons = append(cons, do(func(*sim.Proc) { done[j] = true }))
		script(e, "consumer", cons...)
	}
	e.Run()
	if !done[0] || !done[1] {
		t.Fatalf("consumers stuck after producer failure: %v", done)
	}
	if len(fd.Detected) != 1 || fd.Detected[0] != 1 {
		t.Fatalf("detected = %v, want [1]", fd.Detected)
	}
}

func TestFailureDetectorIgnoresAliveJobs(t *testing.T) {
	e := sim.New()
	s := NewStagingArea(e, 2, 1e9)
	fd := &FailureDetector{
		Staging: s,
		Timeout: 2,
		Alive:   func(int) bool { return true }, // just slow, not dead
		Horizon: 30,
	}
	e.Spawn("detector", fd.Run)
	script(e, "slow-producer",
		sleep(20), put(s, &Batch{Index: 0, PreparedBytes: 1}),
		sleep(1), put(s, &Batch{Index: 1, PreparedBytes: 1}))
	for j := 0; j < 2; j++ {
		script(e, "c", get(s, j, 0, nil), get(s, j, 1, nil))
	}
	e.Run()
	if len(fd.Detected) != 0 {
		t.Fatalf("false positive: detected %v", fd.Detected)
	}
}

func TestPartitionedFetchOrdersOfMagnitude(t *testing.T) {
	// Remote DRAM over 40GbE must beat local HDD for OpenImages-sized
	// items — the premise of partitioned caching (§4.2).
	e := sim.New()
	spec := cluster.ConfigHDD1080Ti()
	cl := cluster.Build(e, spec, 2)
	d := &dataset.Dataset{Name: "t", NumItems: 100, TotalBytes: 100 * 300 * stats.KiB}
	f := NewPartitionedFetcher(d, cl, d.TotalBytes/2, 1)
	shards := f.OwnerShards()
	warm(e, f)

	// Time fetching server 1's shard from server 0 (all remote).
	var start, remoteT float64
	script(e, "remote", do(func(p *sim.Proc) { start = p.Now() }),
		fetch(f, 0, shards[1].Items, nil),
		do(func(p *sim.Proc) { remoteT = p.Now() - start }))
	e.Run()
	diskT := 0.0
	for _, id := range shards[1].Items {
		sz := d.ItemBytes(id)
		diskT += spec.Disk.SeekTime + sz/spec.Disk.SeqBW
	}
	if remoteT >= diskT/3 {
		t.Fatalf("remote fetch %.3fs not clearly faster than HDD %.3fs", remoteT, diskT)
	}
}
