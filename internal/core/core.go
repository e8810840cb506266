// Package core implements CoorDL, the paper's coordinated data-loading
// library (§4). Its three techniques are:
//
//   - the MinIO software cache (§4.1), exposed here as MinIOFetcher;
//   - partitioned caching across the servers of a distributed job (§4.2),
//     exposed as PartitionedFetcher;
//   - coordinated prep for concurrent hyper-parameter-search jobs (§4.3),
//     exposed as the StagingArea plus the FailureDetector.
//
// The trainer package wires these into running jobs; this package contains
// the policy and coordination logic.
package core

import (
	"datastall/internal/cache"
	"datastall/internal/cluster"
	"datastall/internal/dataset"
	"datastall/internal/loader"
	"datastall/internal/sim"
	"datastall/internal/stats"
)

// MinIOFetcher fetches through a per-server MinIO cache: items are cached on
// first fetch and never evicted, so every epoch after the first gets exactly
// capacity-many hits and disk I/O drops to the thrashing-free minimum.
type MinIOFetcher struct {
	Dataset *dataset.Dataset
	Cluster *cluster.Cluster
	Caches  []*cache.MinIO // one per server, shared across jobs
}

// NewMinIOFetcher builds MinIO caches of capBytes per server, pre-sized for
// the dataset's dense ID range so inserts never reallocate.
func NewMinIOFetcher(d *dataset.Dataset, c *cluster.Cluster, capBytes float64) *MinIOFetcher {
	f := &MinIOFetcher{Dataset: d, Cluster: c}
	for range c.Servers {
		f.Caches = append(f.Caches, cache.NewMinIOSized(capBytes, d.NumItems))
	}
	return f
}

// CacheUsedBytes reports MinIO occupancy summed across servers (surfaced by
// the trainer's EpochEnded observer events).
func (f *MinIOFetcher) CacheUsedBytes() float64 { return cache.SumUsedBytes(f.Caches) }

// FetchBatch implements loader.Fetcher.
func (f *MinIOFetcher) FetchBatch(ops *sim.Ops, server int, items []dataset.ItemID) loader.FetchResult {
	var r loader.FetchResult
	mc := f.Caches[server]
	for _, id := range items {
		sz := f.Dataset.ItemBytes(id)
		if mc.Lookup(id) {
			r.MemBytes += sz
			r.Hits++
		} else {
			r.DiskBytes += sz
			r.DiskItems++
			r.Misses++
			mc.Insert(id, sz)
		}
	}
	srv := f.Cluster.Servers[server]
	srv.Disk.ReadRandom(ops, r.DiskBytes, r.DiskItems)
	srv.Mem.Read(ops, r.MemBytes)
	return r
}

// PartitionedFetcher adds partitioned caching on top of MinIO for
// distributed jobs: a local miss is first looked up in the MinIO caches of
// the job's other servers and, if found, fetched over TCP from remote DRAM
// instead of local storage (§4.2).
type PartitionedFetcher struct {
	Dataset *dataset.Dataset
	Cluster *cluster.Cluster
	Part    *cache.Partitioned

	// remoteBytes / remoteItems are FetchBatch's reusable per-source-server
	// accumulators.
	remoteBytes []float64
	remoteItems []int
}

// NewPartitionedFetcher shards d across the cluster's servers with capBytes
// of MinIO cache each.
func NewPartitionedFetcher(d *dataset.Dataset, c *cluster.Cluster, capBytes float64, seed int64) *PartitionedFetcher {
	return &PartitionedFetcher{
		Dataset:     d,
		Cluster:     c,
		Part:        cache.NewPartitioned(d, len(c.Servers), capBytes, seed),
		remoteBytes: make([]float64, len(c.Servers)),
		remoteItems: make([]int, len(c.Servers)),
	}
}

// OwnerShards returns the static per-server shards used to populate the
// caches in the first epoch ("the dataset is sharded across all servers, and
// each server populates its local MinIO cache with the shard assigned to
// it", §4.2).
func (f *PartitionedFetcher) OwnerShards() []dataset.Shard {
	return f.Part.OwnerShards()
}

// CacheUsedBytes reports aggregate partitioned-cache occupancy.
func (f *PartitionedFetcher) CacheUsedBytes() float64 { return f.Part.AggregateUsedBytes() }

// FetchBatch implements loader.Fetcher: local MinIO hit -> DRAM; remote hit
// -> TCP from the owning server's DRAM; miss -> local storage (cached by the
// owner only).
func (f *PartitionedFetcher) FetchBatch(ops *sim.Ops, server int, items []dataset.ItemID) loader.FetchResult {
	var r loader.FetchResult
	// Per-server accumulators, iterated in server order below: remote
	// fetches must hit the NIC queues in a reproducible order or simulated
	// timing varies run to run (map iteration order is randomized).
	remoteBytes, remoteItems := f.remoteBytes, f.remoteItems
	clear(remoteBytes)
	clear(remoteItems)
	for _, id := range items {
		sz := f.Dataset.ItemBytes(id)
		loc, src := f.Part.Lookup(server, id)
		switch loc {
		case cache.LocalHit:
			r.MemBytes += sz
			r.Hits++
		case cache.RemoteHit:
			remoteBytes[src] += sz
			remoteItems[src]++
			r.NetBytes += sz
			r.RemoteHit++
		default:
			r.DiskBytes += sz
			r.DiskItems++
			r.Misses++
			f.Part.Insert(server, id, sz)
		}
	}
	srv := f.Cluster.Servers[server]
	srv.Disk.ReadRandom(ops, r.DiskBytes, r.DiskItems)
	for src, bytes := range remoteBytes {
		if bytes > 0 {
			f.Cluster.Fabric.RemoteFetch(ops, server, src, bytes, remoteItems[src])
		}
	}
	srv.Mem.Read(ops, r.MemBytes)
	return r
}

// Batch is one pre-processed minibatch in the staging area.
type Batch struct {
	// Index is the global batch index within the epoch.
	Index int
	// Owner is the HP-search job that produced it.
	Owner int
	// Items are the raw item IDs (for bookkeeping/tests).
	Items []dataset.ItemID
	// PreparedBytes is the staged tensor size.
	PreparedBytes float64
}

// StagingArea is the cross-job staging region of coordinated prep (§4.3):
// producers expose pre-processed minibatches; each of the nJobs concurrent
// jobs consumes every batch exactly once per epoch; a batch is evicted when
// its use counter reaches nJobs. Capacity is bounded in bytes; producers
// wait while the area is full. Every wait registers the caller on one waiter
// list that each state change broadcasts to, and the waiter re-checks.
type StagingArea struct {
	eng      *sim.Engine
	nJobs    int
	capBytes float64

	slots     map[int]*slot
	dead      map[int]bool
	usedBytes float64
	peakBytes float64
	waiters   sim.WaitList
	// epochDone counts live jobs that completed each epoch; producers
	// gate on it so epochs complete "in a synchronized fashion by all HP
	// jobs" (§4.3) and the staging area cannot fill with future-epoch
	// batches while a straggler still needs the current epoch's.
	epochDone map[int]int

	// waitingSince records, per consumer job, when it started waiting for
	// a missing batch (0 = not waiting); the failure detector polls it.
	waitingSince map[int]float64
	waitingFor   map[int]int

	// MemTrace samples staging memory utilization over time (Fig 20).
	MemTrace *stats.TimeSeries

	produced, consumed, evicted int64
}

type slot struct {
	b    *Batch
	uses map[int]bool // jobs that consumed it this epoch
}

// RemoveJob excludes a dead job from the consumption quorum: its pending
// consumptions are forfeited so batches it will never read can be evicted
// (the driver removes killed jobs at recovery time, §4.3).
func (s *StagingArea) RemoveJob(job int) {
	if s.dead == nil {
		s.dead = make(map[int]bool)
	}
	if s.dead[job] {
		return
	}
	s.dead[job] = true
	delete(s.waitingSince, job)
	delete(s.waitingFor, job)
	for idx, sl := range s.slots {
		if s.quorum(sl) {
			s.usedBytes -= sl.b.PreparedBytes
			s.evicted++
			delete(s.slots, idx)
		}
	}
	s.sample()
	s.waiters.Broadcast()
}

// quorum reports whether every live job has consumed the slot.
func (s *StagingArea) quorum(sl *slot) bool {
	live := 0
	for j := 0; j < s.nJobs; j++ {
		if s.dead[j] {
			continue
		}
		live++
		if !sl.uses[j] {
			return false
		}
	}
	return live > 0
}

// NewStagingArea returns a staging area for nJobs jobs with the given byte
// capacity (the paper's deployments use ~5 GB, §5.5).
func NewStagingArea(e *sim.Engine, nJobs int, capBytes float64) *StagingArea {
	return &StagingArea{
		eng:          e,
		nJobs:        nJobs,
		capBytes:     capBytes,
		slots:        make(map[int]*slot),
		waitingSince: make(map[int]float64),
		waitingFor:   make(map[int]int),
		epochDone:    make(map[int]int),
	}
}

// LiveJobs returns the number of jobs still in the consumption quorum.
func (s *StagingArea) LiveJobs() int { return s.nJobs - len(s.dead) }

// JobEpochDone records that a job finished consuming an epoch.
func (s *StagingArea) JobEpochDone(epoch int) {
	s.epochDone[epoch]++
	s.waiters.Broadcast()
}

// TryEpochStart reports whether a producer may stage epoch-e batches: every
// live job has finished epoch e-1. Otherwise it registers p as a waiter and
// reports false; p's step must return and call again when resumed.
func (s *StagingArea) TryEpochStart(p *sim.Proc, epoch int) bool {
	if epoch > 0 && s.epochDone[epoch-1] < s.LiveJobs() {
		s.waiters.Add(p)
		return false
	}
	return true
}

// TryGetAny consumes and returns any staged batch with index in [lo, hi)
// that job has not yet consumed, preferring the lowest index. Jobs may
// consume the epoch's minibatches in any order; each exactly once (§4.3).
// When none is available it records job as waiting (for the failure
// detector), registers p as a waiter and reports false; p's step must
// return and call again when resumed.
func (s *StagingArea) TryGetAny(p *sim.Proc, job, lo, hi int) (*Batch, bool) {
	best := -1
	for idx, sl := range s.slots {
		if idx >= lo && idx < hi && !sl.uses[job] {
			if best == -1 || idx < best {
				best = idx
			}
		}
	}
	if best >= 0 {
		return s.take(job, best), true
	}
	if _, waiting := s.waitingSince[job]; !waiting {
		s.waitingSince[job] = s.eng.Now()
		s.waitingFor[job] = lo
	}
	s.waiters.Add(p)
	return nil, false
}

// take consumes slot index on behalf of job and evicts it at quorum.
func (s *StagingArea) take(job, index int) *Batch {
	sl := s.slots[index]
	sl.uses[job] = true
	s.consumed++
	delete(s.waitingSince, job)
	delete(s.waitingFor, job)
	b := sl.b
	if s.quorum(sl) {
		delete(s.slots, index)
		s.usedBytes -= b.PreparedBytes
		s.evicted++
		s.sample()
		s.waiters.Broadcast()
	}
	return b
}

// EnableMemTrace starts sampling memory use.
func (s *StagingArea) EnableMemTrace(name string) {
	s.MemTrace = &stats.TimeSeries{Name: name}
}

func (s *StagingArea) sample() {
	if s.peakBytes < s.usedBytes {
		s.peakBytes = s.usedBytes
	}
	if s.MemTrace != nil {
		s.MemTrace.Add(s.eng.Now(), s.usedBytes)
	}
}

// TryPut stages a prepared batch and reports true or, while the area is
// full, registers p as a waiter and reports false; p's step must return and
// call again when resumed.
func (s *StagingArea) TryPut(p *sim.Proc, b *Batch) bool {
	if s.usedBytes+b.PreparedBytes > s.capBytes && len(s.slots) > 0 {
		s.waiters.Add(p)
		return false
	}
	s.slots[b.Index] = &slot{b: b, uses: make(map[int]bool, s.nJobs)}
	s.usedBytes += b.PreparedBytes
	s.produced++
	s.sample()
	s.waiters.Broadcast()
	return true
}

// UsedBytes returns current staged bytes; PeakBytes the high-water mark.
func (s *StagingArea) UsedBytes() float64 { return s.usedBytes }

// PeakBytes returns the maximum concurrent staging footprint observed.
func (s *StagingArea) PeakBytes() float64 { return s.peakBytes }

// Counters returns (produced, consumed, evicted) batch counts.
func (s *StagingArea) Counters() (produced, consumed, evicted int64) {
	return s.produced, s.consumed, s.evicted
}

// OverdueJobs returns jobs that have been blocked on a missing batch for
// longer than timeout, with the batch index each is waiting for.
func (s *StagingArea) OverdueJobs(timeout float64) map[int]int {
	out := map[int]int{}
	now := s.eng.Now()
	for job, since := range s.waitingSince {
		if now-since > timeout {
			out[job] = s.waitingFor[job]
		}
	}
	return out
}

// FailureDetector monitors coordinated-prep jobs (§4.3): if a consumer waits
// longer than the timeout (10x an iteration) for a batch, the detector
// verifies whether the producing job is alive and, if dead, hands the failed
// job's remaining shard to a recovery producer.
type FailureDetector struct {
	Staging *StagingArea
	// Timeout is the overdue threshold (10x iteration time, §4.4).
	Timeout float64
	// Alive reports whether a job's producer is still alive.
	Alive func(job int) bool
	// Recover is invoked once per dead job to respawn data loading for
	// its shard.
	Recover func(job int)
	// Horizon is the simulated time after which the detector stops
	// polling.
	Horizon float64

	// Detected lists jobs the detector declared dead.
	Detected []int

	recovered map[int]bool
}

// Run is the detector's process step: spawn it with eng.Spawn(name,
// fd.Run). Its first step starts the clock; every later one, Timeout/2
// apart until Horizon, declares dead — once each — the overdue owners whose
// liveness check fails and hands each to Recover.
func (fd *FailureDetector) Run(p *sim.Proc) {
	if fd.recovered == nil {
		fd.recovered = make(map[int]bool)
	} else {
		for _, owner := range fd.overdueOwners() {
			if fd.recovered[owner] {
				continue
			}
			if fd.Alive != nil && fd.Alive(owner) {
				continue // spurious: the waiter retries on the next broadcast
			}
			fd.recovered[owner] = true
			fd.Detected = append(fd.Detected, owner)
			if fd.Recover != nil {
				fd.Recover(owner)
			}
		}
	}
	if p.Now() < fd.Horizon {
		p.WakeAfter(fd.Timeout / 2)
	}
}

// overdueOwners returns candidate failed producers once any consumer is
// overdue: first the owners of the specific batches being waited on, then —
// since a consumer using TryGetAny only knows its epoch window — every job, so
// the liveness check in Run can identify the dead one (§4.3: jobs can
// deterministically identify which job failed).
func (fd *FailureDetector) overdueOwners() []int {
	overdue := fd.Staging.OverdueJobs(fd.Timeout)
	if len(overdue) == 0 {
		return nil
	}
	var owners []int
	seen := map[int]bool{}
	// Walk waiting jobs in ID order: map iteration order would make the
	// owner candidate list (and recovery timing) nondeterministic.
	for job := 0; job < fd.Staging.nJobs; job++ {
		idx, ok := overdue[job]
		if !ok {
			continue
		}
		owner := idx % fd.Staging.nJobs
		if !seen[owner] {
			seen[owner] = true
			owners = append(owners, owner)
		}
	}
	for j := 0; j < fd.Staging.nJobs; j++ {
		if !seen[j] {
			seen[j] = true
			owners = append(owners, j)
		}
	}
	return owners
}
