package trainer

import (
	"context"
	"fmt"

	"datastall/internal/cluster"
	"datastall/internal/core"
	"datastall/internal/dataset"
	"datastall/internal/loader"
	"datastall/internal/prep"
	"datastall/internal/sim"
	"datastall/internal/stats"
)

// ConcurrentConfig describes a hyper-parameter-search workload: NumJobs
// concurrent jobs on one server, each training the same model on the same
// dataset with GPUsPerJob GPUs (§3.3.1, §5.3).
type ConcurrentConfig struct {
	// Base supplies model, dataset, SKU, batch, epochs, framework, cache
	// size and seed. NumServers is forced to 1; GPUsPerServer to
	// GPUsPerJob; ThreadsPerGPU to the job's fair CPU share.
	Base Config

	NumJobs    int
	GPUsPerJob int

	// Coordinated enables CoorDL's coordinated prep (§4.3): the dataset
	// is sharded across jobs, fetched and pre-processed exactly once per
	// epoch, and shared through the staging area. When false, the jobs
	// run independently, contending on the shared page cache, disk, and
	// CPU — the DALI/PyTorch baseline.
	Coordinated bool
	// StagingCapBytes bounds the cross-job staging area (default 5 GiB,
	// the footprint the paper measures in §5.5).
	StagingCapBytes float64
	// TraceStagingMem records the staging memory time series (Fig 20).
	TraceStagingMem bool

	// CoordUsePageCache makes coordinated prep fetch through the OS page
	// cache instead of MinIO — the "coordinated prep alone" configuration
	// of Appendix E.2.3's component breakdown.
	CoordUsePageCache bool

	// KillJob, if >= 0, makes that job's producers die after
	// KillAfterBatches batches (failure-injection for §4.3's detector).
	KillJob          int
	KillAfterBatches int
}

// ConcurrentResult reports a finished multi-job run.
type ConcurrentResult struct {
	// Jobs holds per-job results (durations, throughput, hit rates).
	Jobs []*Result
	// TotalDiskBytes is storage I/O across the whole run.
	TotalDiskBytes float64
	// DiskPerEpoch is steady-state storage I/O per epoch (after warmup).
	DiskPerEpoch float64
	// ReadAmplification is DiskPerEpoch / dataset size: >1 means the
	// server reads the dataset multiple times per epoch (§3.3.1).
	ReadAmplification float64
	// StagingPeakBytes / StagingTrace describe coordinated-prep memory.
	StagingPeakBytes float64
	StagingTrace     *stats.TimeSeries
	// DetectedFailures lists jobs the failure detector declared dead.
	DetectedFailures []int
}

// RunConcurrentContext executes the workload and returns per-job and
// aggregate statistics. It honors ctx: the shared simulation engine polls
// for cancellation between events, so a cancelled context returns ctx.Err()
// promptly (immediately when already cancelled) instead of running the
// jobs to completion.
func RunConcurrentContext(ctx context.Context, cc ConcurrentConfig) (*ConcurrentResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if cc.NumJobs < 1 || cc.GPUsPerJob < 1 {
		return nil, fmt.Errorf("trainer: need >= 1 job and GPU per job")
	}
	base := cc.Base
	base.NumServers = 1
	base.GPUsPerServer = cc.GPUsPerJob
	if base.ThreadsPerGPU == 0 {
		perJob := base.Spec.PhysicalCores / cc.NumJobs
		if perJob < 1 {
			perJob = 1
		}
		base.ThreadsPerGPU = perJob / cc.GPUsPerJob
		if base.ThreadsPerGPU < 1 {
			base.ThreadsPerGPU = 1
		}
	}
	base = base.withDefaults()
	if err := base.Validate(); err != nil {
		return nil, err
	}
	if cc.NumJobs*cc.GPUsPerJob > base.Spec.NumGPUs {
		return nil, fmt.Errorf("trainer: %d jobs x %d GPUs exceed the server's %d GPUs",
			cc.NumJobs, cc.GPUsPerJob, base.Spec.NumGPUs)
	}
	if cc.StagingCapBytes == 0 {
		cc.StagingCapBytes = 5 * stats.GiB
	}
	if cc.KillJob == 0 && cc.KillAfterBatches == 0 {
		cc.KillJob = -1
	}
	cc.Base = base

	if cc.Coordinated {
		return runCoordinated(ctx, cc)
	}
	return runIndependent(ctx, cc)
}

// runIndependent runs NumJobs uncoordinated jobs sharing one server's page
// cache, storage and CPU.
func runIndependent(ctx context.Context, cc ConcurrentConfig) (*ConcurrentResult, error) {
	eng := sim.New()
	cl := cluster.Build(eng, cc.Base.Spec, 1)
	var shared loader.Fetcher
	switch {
	case cc.Base.FetchMode == FullyCached:
		shared = &loader.CachedFetcher{Dataset: cc.Base.Dataset, Cluster: cl}
	case cc.Base.RecordBytes > 0:
		shared = loader.NewTFRecordFetcher(cc.Base.Dataset, cl, cc.Base.CacheBytes, cc.Base.RecordBytes, cc.Base.Seed)
	case cc.Base.Loader == loader.CoorDL:
		// MinIO without coordination (ablation).
		shared = core.NewMinIOFetcher(cc.Base.Dataset, cl, cc.Base.CacheBytes)
	default:
		shared = loader.NewPageCacheFetcher(cc.Base.Dataset, cl, cc.Base.CacheBytes, cc.Base.Seed)
	}
	var rts []*jobRuntime
	for j := 0; j < cc.NumJobs; j++ {
		cfg := cc.Base
		cfg.Seed = cc.Base.Seed + int64(j)*131
		rt, err := newJobRuntimeWith(cfg, eng, cl, shared, nil)
		if err != nil {
			return nil, err
		}
		rt.launch()
		rts = append(rts, rt)
	}
	if err := eng.RunContext(ctx, sim.DefaultCancelPoll); err != nil {
		return nil, err
	}

	res := &ConcurrentResult{TotalDiskBytes: cl.TotalDiskBytes()}
	for _, rt := range rts {
		res.Jobs = append(res.Jobs, rt.result())
	}
	fillDiskAggregates(res, rts[0], cc.Base)
	return res, nil
}

// fillDiskAggregates derives steady-state disk I/O per epoch from job 0's
// epoch boundaries (jobs progress nearly in lockstep).
func fillDiskAggregates(res *ConcurrentResult, rt0 *jobRuntime, base Config) {
	if len(rt0.snaps) >= 2 {
		first := rt0.snaps[0].disk
		last := rt0.snaps[len(rt0.snaps)-1].disk
		res.DiskPerEpoch = (last - first) / float64(len(rt0.snaps)-1)
	} else {
		res.DiskPerEpoch = res.TotalDiskBytes
	}
	res.ReadAmplification = res.DiskPerEpoch / base.Dataset.TotalBytes
}

// runCoordinated runs CoorDL's coordinated prep: one fetch+prep sweep per
// epoch shared by all jobs through the staging area.
func runCoordinated(ctx context.Context, cc ConcurrentConfig) (*ConcurrentResult, error) {
	eng := sim.New()
	base := cc.Base
	cl := cluster.Build(eng, base.Spec, 1)
	var fetcher loader.Fetcher
	switch {
	case cc.CoordUsePageCache:
		fetcher = loader.NewPageCacheFetcher(base.Dataset, cl, base.CacheBytes, base.Seed)
	case base.FetchMode == FullyCached:
		fetcher = &loader.CachedFetcher{Dataset: base.Dataset, Cluster: cl}
	default:
		fetcher = core.NewMinIOFetcher(base.Dataset, cl, base.CacheBytes)
	}
	staging := core.NewStagingArea(eng, cc.NumJobs, cc.StagingCapBytes)
	if cc.TraceStagingMem {
		staging.EnableMemTrace("staging-mem")
	}

	rt := &coordRuntime{
		cc: cc, eng: eng, cl: cl, fetcher: fetcher, staging: staging,
		shards:     dataset.SplitRandom(base.Dataset, cc.NumJobs, base.Seed),
		orderCache: map[orderKey][]dataset.ItemID{},
	}
	rt.setup()
	rt.launch()
	if err := eng.RunContext(ctx, sim.DefaultCancelPoll); err != nil {
		return nil, err
	}
	return rt.result(), nil
}

// coordRuntime is the coordinated-prep runtime (§4.3).
type coordRuntime struct {
	cc      ConcurrentConfig
	eng     *sim.Engine
	cl      *cluster.Cluster
	fetcher loader.Fetcher
	staging *core.StagingArea
	shards  []dataset.Shard

	batchesPerJob int                    // per epoch; total = NumJobs * batchesPerJob
	itersPerGPU   int                    // per epoch, per consumer GPU
	prepRate      float64                // per-job aggregate prep rate (bytes/s)
	prepSrv       []*sim.BandwidthServer // per job: intra-batch parallel prep
	producers     int                    // per job
	prepBatch     float64                // prepared bytes per staged batch
	iterTime      float64

	produced []int // per job, cumulative batches produced
	jobDead  bool
	detector *core.FailureDetector

	// orderCache memoizes shard orders per (job, epoch): a job's P
	// producers (plus any recovery producer) share one shuffle instead of
	// each re-deriving an identical permutation. Entries two epochs old
	// are dropped to bound memory. Single-threaded simulation: no lock.
	orderCache map[orderKey][]dataset.ItemID

	// Per-job accounting.
	jobs []*coordJobStats
}

type coordJobStats struct {
	barrier *sim.Barrier
	snaps   []snapshot
	samples int
	fetch   loader.FetchResult
}

func (rt *coordRuntime) setup() {
	cc := rt.cc
	base := cc.Base
	minShard := rt.shards[0].Items
	for _, sh := range rt.shards {
		if len(sh.Items) < len(minShard) {
			minShard = sh.Items
		}
	}
	bpj := len(minShard) / base.Batch
	// Total staged batches per epoch must divide evenly across each
	// job's GPUs.
	for bpj > 0 && (bpj*cc.NumJobs)%cc.GPUsPerJob != 0 {
		bpj--
	}
	rt.batchesPerJob = bpj
	rt.itersPerGPU = bpj * cc.NumJobs / cc.GPUsPerJob

	// Coordinated prep preps each shard once using the job's full CPU
	// share; all jobs together apply the server's full core count.
	pc := base.prepConfig()
	pc.Threads = base.ThreadsPerGPU * cc.GPUsPerJob // whole job's threads
	physPerJob := base.Spec.PhysicalCores / cc.NumJobs
	if physPerJob < 1 {
		physPerJob = 1
	}
	if pc.PhysicalCores = physPerJob; pc.PhysicalCores > pc.Threads {
		pc.PhysicalCores = pc.Threads
	}
	pc.NumGPUs = cc.GPUsPerJob
	rt.prepRate = prep.Rate(base.Model, pc)
	rt.producers = pc.Threads
	if rt.producers > 4 {
		rt.producers = 4
	}
	rt.prepBatch = float64(base.Batch) * base.Model.PreparedBytes
	rt.iterTime = base.Model.BatchTime(base.Spec.Gen, base.Batch, pc.GPUPrep)

	rt.produced = make([]int, cc.NumJobs)
	for j := 0; j < cc.NumJobs; j++ {
		rt.jobs = append(rt.jobs, &coordJobStats{
			barrier: sim.NewBarrier(cc.GPUsPerJob),
		})
		rt.prepSrv = append(rt.prepSrv, sim.NewBandwidthServer(rt.eng))
	}
}

// launch spawns, per job, its producers and then its GPU consumers, plus
// the failure detector when a job is to be killed. Every process is a
// callback state machine.
func (rt *coordRuntime) launch() {
	cc := rt.cc
	for j := 0; j < cc.NumJobs; j++ {
		for k := 0; k < rt.producers; k++ {
			sm := &coordProducerSM{rt: rt, j: j, n: k, first: k, stride: rt.producers}
			rt.eng.Spawn(fmt.Sprintf("coord-prod-%d-%d", j, k), sm.step)
		}
		for g := 0; g < cc.GPUsPerJob; g++ {
			sm := &coordConsumerSM{rt: rt, j: j, g: g}
			rt.eng.Spawn(fmt.Sprintf("coord-gpu-%d-%d", j, g), sm.step)
		}
	}
	if cc.KillJob >= 0 {
		rt.detector = &core.FailureDetector{
			Staging: rt.staging,
			Timeout: 10 * rt.iterTime,
			Alive:   func(job int) bool { return !(job == cc.KillJob && rt.jobDead) },
			Recover: func(job int) {
				rt.staging.RemoveJob(job)
				sm := &coordProducerSM{rt: rt, j: job, recovery: true,
					state: cpTakeOver, stride: 1}
				rt.eng.Spawn("coord-recovery", sm.step)
			},
			Horizon: float64(rt.itersPerGPU*cc.Base.Epochs) * rt.iterTime * 50,
		}
		rt.eng.Spawn("failure-detector", rt.detector.Run)
	}
}

// orderKey addresses one job's memoized epoch order.
type orderKey struct{ job, epoch int }

// shardOrder returns job j's shard order for an epoch, memoized so the
// job's producers shuffle once per epoch between them.
func (rt *coordRuntime) shardOrder(j, epoch int) []dataset.ItemID {
	k := orderKey{j, epoch}
	if order, ok := rt.orderCache[k]; ok {
		return order
	}
	s := dataset.NewRandomSampler(rt.shards[j], rt.cc.Base.Seed+int64(j)*977)
	order := s.EpochOrder(epoch)
	rt.orderCache[k] = order
	delete(rt.orderCache, orderKey{j, epoch - 2})
	return order
}

// coordProducerState enumerates the coordinated producer's resume points.
type coordProducerState int

const (
	cpEpoch    coordProducerState = iota // wait for the epoch to open
	cpTakeOver                           // recovery: find where the dead job stopped
	cpBatch                              // next batch, or the epoch's end
	cpFetch                              // running the batch's device ops
	cpPrep                               // running its prep and staging copy
	cpPut                                // staging the prepared batch
	cpDone
)

// coordProducerSM fetches and preps job j's shard, staging batches for all
// jobs: batches n, n+stride, ... of each epoch, where a regular producer k
// of P starts every epoch at batch k with stride P. A recovery producer
// takes over a dead job's shard from the first batch it did not produce,
// one batch at a time; it is never killed and, as the dead job's
// accounting has stopped, adds nothing to the job's fetch counters.
type coordProducerSM struct {
	rt       *coordRuntime
	j        int
	first    int // batch each epoch after the starting one begins at
	stride   int
	recovery bool
	state    coordProducerState
	epoch    int
	n        int // next batch of the epoch
	order    []dataset.ItemID
	batch    *core.Batch
	res      loader.FetchResult
	ops      sim.Ops
}

// step runs the producer until it waits (for the epoch to open, on a
// device or on staging space) or finishes.
func (sm *coordProducerSM) step(p *sim.Proc) {
	rt := sm.rt
	cc := rt.cc
	base := cc.Base
	for {
		switch sm.state {
		case cpTakeOver:
			done := rt.produced[sm.j]
			sm.epoch, sm.n = done/rt.batchesPerJob, done%rt.batchesPerJob
			sm.state = cpEpoch
		case cpEpoch:
			if sm.epoch >= base.Epochs {
				sm.state = cpDone
				return
			}
			if !rt.staging.TryEpochStart(p, sm.epoch) {
				return
			}
			sm.order = rt.shardOrder(sm.j, sm.epoch)
			sm.state = cpBatch
		case cpBatch:
			if sm.n >= rt.batchesPerJob {
				sm.epoch++
				sm.n = sm.first
				sm.state = cpEpoch
				continue
			}
			if !sm.recovery && cc.KillJob == sm.j && rt.produced[sm.j] >= cc.KillAfterBatches {
				rt.jobDead = true
				sm.state = cpDone
				return
			}
			items := sm.order[sm.n*base.Batch : (sm.n+1)*base.Batch]
			sm.batch = &core.Batch{
				Index: sm.epoch*cc.NumJobs*rt.batchesPerJob + sm.n*cc.NumJobs + sm.j,
				Owner: sm.j, Items: items, PreparedBytes: rt.prepBatch,
			}
			sm.ops.Reset()
			sm.res = rt.fetcher.FetchBatch(&sm.ops, 0, items)
			sm.state = cpFetch
		case cpFetch:
			if !sm.ops.Run(p) {
				return
			}
			if !sm.recovery {
				rt.jobs[sm.j].fetch.Add(sm.res)
			}
			raw := sm.res.MemBytes + sm.res.DiskBytes + sm.res.NetBytes
			sm.ops.Add(sim.Op{Srv: rt.prepSrv[sm.j], Bytes: raw, BW: rt.prepRate})
			// Write the prepared batch into shared memory.
			sm.ops.Add(sim.Op{Srv: rt.cl.Servers[0].Staging,
				Bytes: rt.prepBatch, BW: base.Spec.StagingBW})
			sm.state = cpPrep
		case cpPrep:
			if !sm.ops.Run(p) {
				return
			}
			sm.state = cpPut
		case cpPut:
			if !rt.staging.TryPut(p, sm.batch) {
				return
			}
			rt.produced[sm.j]++
			sm.n += sm.stride
			sm.state = cpBatch
		case cpDone:
			return
		}
	}
}

// coordConsumerState enumerates the coordinated consumer's resume points.
type coordConsumerState int

const (
	ccIter    coordConsumerState = iota // next iteration, or the epoch's end
	ccGet                               // taking a staged batch
	ccCopy                              // batch copied out; compute
	ccCompute                           // compute done; job barrier
	ccNext                              // barrier passed
	ccDone
)

// coordConsumerSM is GPU g of job j: per epoch it reads every staged batch
// exactly once, copying each out of shared memory, computing and meeting
// the job's other GPUs at its barrier. A killed job's consumers exit too.
type coordConsumerSM struct {
	rt    *coordRuntime
	j, g  int
	state coordConsumerState
	epoch int
	it    int
}

// step runs the consumer until it waits (for a batch, a timed wake or the
// job barrier) or finishes.
func (sm *coordConsumerSM) step(p *sim.Proc) {
	rt := sm.rt
	cc := rt.cc
	base := cc.Base
	js := rt.jobs[sm.j]
	for {
		switch sm.state {
		case ccIter:
			if sm.epoch >= base.Epochs {
				sm.state = ccDone
				return
			}
			if sm.it < rt.itersPerGPU {
				if cc.KillJob == sm.j && rt.jobDead {
					sm.state = ccDone
					return
				}
				sm.state = ccGet
				continue
			}
			js.samples += rt.itersPerGPU * base.Batch * cc.GPUsPerJob
			if sm.g == 0 {
				js.snaps = append(js.snaps, snapshot{
					t:       rt.eng.Now(),
					disk:    rt.cl.TotalDiskBytes(),
					fetch:   js.fetch,
					samples: js.samples,
				})
				rt.staging.JobEpochDone(sm.epoch)
			}
			sm.epoch++
			sm.it = 0
		case ccGet:
			lo := sm.epoch * cc.NumJobs * rt.batchesPerJob
			if _, ok := rt.staging.TryGetAny(p, sm.j, lo, lo+cc.NumJobs*rt.batchesPerJob); !ok {
				return
			}
			// Copy the prepared batch out of shared memory.
			sm.state = ccCopy
			if p.WakeAt(rt.cl.Servers[0].Staging.Request(rt.prepBatch, base.Spec.StagingBW, 0)) {
				return
			}
		case ccCopy:
			sm.state = ccCompute
			p.WakeAfter(rt.iterTime)
			return
		case ccCompute:
			sm.state = ccNext
			if !js.barrier.Arrive(p) {
				return
			}
		case ccNext:
			sm.it++
			sm.state = ccIter
		case ccDone:
			return
		}
	}
}

func (rt *coordRuntime) result() *ConcurrentResult {
	cc := rt.cc
	res := &ConcurrentResult{
		TotalDiskBytes:   rt.cl.TotalDiskBytes(),
		StagingPeakBytes: rt.staging.PeakBytes(),
		StagingTrace:     rt.staging.MemTrace,
	}
	if rt.detector != nil {
		res.DetectedFailures = rt.detector.Detected
	}
	var rt0snaps []snapshot
	for j := range rt.jobs {
		r := &Result{}
		prev := snapshot{}
		for _, s := range rt.jobs[j].snaps {
			dur := s.t - prev.t
			epSamples := s.samples - prev.samples
			iters := epSamples / (cc.Base.Batch * cc.GPUsPerJob)
			compute := float64(iters) * rt.iterTime
			es := EpochStats{
				Duration: dur, ComputeTime: compute, StallTime: dur - compute,
				DiskBytes: s.disk - prev.disk,
				Hits:      s.fetch.Hits - prev.fetch.Hits,
				Misses:    s.fetch.Misses - prev.fetch.Misses,
				Samples:   epSamples,
			}
			if es.StallTime < 0 {
				es.StallTime = 0
			}
			r.Epochs = append(r.Epochs, es)
			prev = s
		}
		r.TotalDiskBytes = res.TotalDiskBytes
		r.TotalTime = rt.eng.Now()
		r.steadyState()
		res.Jobs = append(res.Jobs, r)
		if j == 0 {
			rt0snaps = rt.jobs[j].snaps
		}
	}
	if len(rt0snaps) >= 2 {
		first := rt0snaps[0].disk
		last := rt0snaps[len(rt0snaps)-1].disk
		res.DiskPerEpoch = (last - first) / float64(len(rt0snaps)-1)
	} else {
		res.DiskPerEpoch = res.TotalDiskBytes
	}
	res.ReadAmplification = res.DiskPerEpoch / cc.Base.Dataset.TotalBytes
	return res
}
