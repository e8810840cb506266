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

// prepped is a staged pre-processed batch flowing producer -> GPU.
type prepped struct {
	rawBytes float64
}

// RunContext executes one training job (single- or multi-server) described
// by a Config, honoring ctx and streaming typed progress events to obs. It
// fills zero fields with the same defaults as Job.Run and runs the same
// simulation, so both give bit-identical results.
func RunContext(ctx context.Context, cfg Config, obs ...Observer) (*Result, error) {
	if cfg.Model == nil || cfg.Dataset == nil {
		return nil, fmt.Errorf("trainer: model and dataset are required")
	}
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return runJob(ctx, cfg, obs)
}

// runJob simulates a defaulted, validated config. It is the single
// execution path behind RunContext and Job.Run.
func runJob(ctx context.Context, cfg Config, obs observers) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	eng := sim.New()
	cl := cluster.Build(eng, cfg.Spec, cfg.NumServers)
	rt, err := newJobRuntime(cfg, eng, cl)
	if err != nil {
		return nil, err
	}
	// Time-series collection is requested through the marker observers
	// (DiskTraceObserver / CPUTraceObserver), the sole spelling since the
	// Config trace flags were removed.
	var traceDisk, traceCPU bool
	for _, ob := range obs {
		switch ob.(type) {
		case diskTraceObserver:
			traceDisk = true
		case cpuTraceObserver:
			traceCPU = true
		}
	}
	rt.enableTraces(traceDisk, traceCPU)
	rt.obs = obs
	rt.launch()
	rt.obs.emit(JobStarted{
		Epochs: cfg.Epochs, Servers: cfg.NumServers,
		GPUsPerServer: cfg.GPUsPerServer,
	})
	rt.obs.emit(EpochStarted{Epoch: 0})
	if err := eng.RunContext(ctx, sim.DefaultCancelPoll); err != nil {
		return nil, err
	}
	res := rt.result()
	rt.obs.emit(JobEnded{Time: res.TotalTime, Result: res})
	return res, nil
}

// jobRuntime holds the live state of one running job.
type jobRuntime struct {
	cfg     Config
	eng     *sim.Engine
	cl      *cluster.Cluster
	fetcher loader.Fetcher
	// ownerShards is the epoch-0 partitioned-cache population assignment
	// (CoorDL distributed only).
	ownerShards []dataset.Shard
	src         *orderSource

	prepCfg   prep.Config
	gpuPrepOn bool
	// prepRatePerGPU is the aggregate prep throughput of one GPU's
	// thread share; DALI parallelizes within a batch, so each batch is
	// processed at the full rate through a per-GPU prep server.
	prepRatePerGPU  float64
	prepSrv         [][]*sim.BandwidthServer // [server][gpu]
	producersPerGPU int

	iterTime  float64 // GPU compute per iteration
	commExtra float64 // unoverlapped gradient-exchange time per iteration
	commBytes float64 // per-server bytes exchanged per iteration

	barrier *sim.Barrier
	// epochBarrier synchronizes producers and consumers at epoch
	// boundaries (samplers re-shuffle and worker pools restart per epoch
	// in PyTorch/DALI), which also keeps per-epoch counters exact.
	epochBarrier *sim.Barrier
	stores       [][]*sim.Store[prepped] // [server][gpu]

	plans map[int]*epochPlan

	// Cumulative fetch counters (single-threaded simulation: plain field).
	fetch loader.FetchResult

	// Per-epoch snapshots taken by the coordinator GPU.
	snaps []snapshot

	traceDisk bool
	cpuTrace  *stats.TimeSeries

	// obs receives typed progress events; nil-safe (emit on an empty list
	// is a no-op), so an unobserved run pays nothing.
	obs observers
}

type snapshot struct {
	t         float64
	disk, net float64
	diskReads int64
	fetch     loader.FetchResult
	samples   int
	// occ is the cache occupancy at snapshot time (point-in-time, not a
	// delta like the other fields).
	occ float64
}

// epochPlan is one epoch's per-server item orders plus the iteration count.
// When owned, buf is the backing permutation buffer the orders are views
// over, and a dropped plan's buffer is recycled into the next epoch's
// (epoch-order reuse: N GPUs and P producers share one shuffle per epoch,
// and successive epochs share one buffer).
type epochPlan struct {
	orders [][]dataset.ItemID // per server
	iters  int
	buf    []dataset.ItemID
	owned  bool
}

// orderSource produces per-epoch visit orders for one job. It is built once
// per job — the full-dataset shard and sampler behind it are constructed a
// single time, not once per epoch per process.
type orderSource struct {
	cfg         Config
	ownerShards []dataset.Shard
	sampler     dataset.Sampler // single-server jobs only
}

func newOrderSource(cfg Config, ownerShards []dataset.Shard) *orderSource {
	src := &orderSource{cfg: cfg, ownerShards: ownerShards}
	if cfg.NumServers == 1 {
		if cfg.Loader == loader.DALISeq && cfg.FetchMode == Normal {
			src.sampler = dataset.NewSequentialSampler(dataset.FullShard(cfg.Dataset))
		} else {
			src.sampler = dataset.NewRandomSampler(dataset.FullShard(cfg.Dataset), cfg.Seed)
		}
	}
	return src
}

// orders builds the epoch's plan, recycling the permutation buffer of a
// dropped plan when one is offered (recycle may be nil). Orders are
// identical whether or not a buffer is recycled.
func (src *orderSource) orders(epoch int, recycle *epochPlan) *epochPlan {
	var buf []dataset.ItemID
	if recycle != nil && recycle.owned {
		buf = recycle.buf
	}
	pl := &epochPlan{}
	switch {
	case src.sampler != nil:
		order := src.sampler.EpochOrderInto(epoch, buf)
		pl.orders = [][]dataset.ItemID{order}
		pl.buf = order
		pl.owned = true
	case epoch == 0 && src.ownerShards != nil:
		// CoorDL's first epoch processes the static owner shards so each
		// server populates its partition of the cache (§4.2). The orders
		// alias the shard slices; they must never be recycled into.
		orders := make([][]dataset.ItemID, 0, len(src.ownerShards))
		for _, sh := range src.ownerShards {
			orders = append(orders, sh.Items)
		}
		pl.orders = orders
	default:
		shards, backing := dataset.EpochShardsInto(
			src.cfg.Dataset, src.cfg.NumServers, epoch, src.cfg.Seed, buf)
		orders := make([][]dataset.ItemID, 0, len(shards))
		for _, sh := range shards {
			orders = append(orders, sh.Items)
		}
		pl.orders = orders
		pl.buf = backing
		pl.owned = true
	}
	pl.iters = epochIters(src.cfg, pl.orders)
	return pl
}

// epochIters returns the per-server iteration count for the given orders
// (drop-last semantics, bounded by the shortest server order).
func epochIters(cfg Config, orders [][]dataset.ItemID) int {
	perIter := cfg.Batch * cfg.GPUsPerServer
	iters := len(orders[0]) / perIter
	for _, o := range orders {
		if it := len(o) / perIter; it < iters {
			iters = it
		}
	}
	return iters
}

func newJobRuntime(cfg Config, eng *sim.Engine, cl *cluster.Cluster) (*jobRuntime, error) {
	var f loader.Fetcher
	var owner []dataset.Shard
	switch {
	case cfg.FetchMode == Synthetic:
		f = loader.SyntheticFetcher{}
	case cfg.FetchMode == FullyCached:
		f = &loader.CachedFetcher{Dataset: cfg.Dataset, Cluster: cl}
	case cfg.RecordBytes > 0:
		f = loader.NewTFRecordFetcher(cfg.Dataset, cl, cfg.CacheBytes, cfg.RecordBytes, cfg.Seed)
	case cfg.Loader == loader.CoorDL && cfg.NumServers > 1 && cfg.DisableRemoteFetch:
		f = core.NewMinIOFetcher(cfg.Dataset, cl, cfg.CacheBytes)
	case cfg.Loader == loader.CoorDL && cfg.NumServers > 1:
		pf := core.NewPartitionedFetcher(cfg.Dataset, cl, cfg.CacheBytes, cfg.Seed)
		f = pf
		owner = pf.OwnerShards()
	case cfg.Loader == loader.CoorDL:
		f = core.NewMinIOFetcher(cfg.Dataset, cl, cfg.CacheBytes)
	default:
		pcf := loader.NewPageCacheFetcher(cfg.Dataset, cl, cfg.CacheBytes, cfg.Seed)
		if cfg.Loader == loader.PyTorchDL {
			pcf.SeeksPerItem = loader.PyTorchSeeksPerItem
		}
		f = pcf
	}
	return newJobRuntimeWith(cfg, eng, cl, f, owner)
}

// newJobRuntimeWith builds a job over a given fetcher; runIndependent passes
// one fetcher shared by several jobs that contend on one server's caches.
func newJobRuntimeWith(cfg Config, eng *sim.Engine, cl *cluster.Cluster, f loader.Fetcher, owner []dataset.Shard) (*jobRuntime, error) {
	rt := &jobRuntime{cfg: cfg, eng: eng, cl: cl, plans: map[int]*epochPlan{}}
	rt.fetcher = f
	rt.ownerShards = owner
	rt.src = newOrderSource(cfg, owner)

	rt.prepCfg = cfg.prepConfig()
	rt.gpuPrepOn = rt.prepCfg.GPUPrep
	rt.producersPerGPU = cfg.ThreadsPerGPU
	if rt.producersPerGPU > 4 {
		rt.producersPerGPU = 4
	}
	if rt.producersPerGPU < 1 {
		rt.producersPerGPU = 1
	}
	rt.prepRatePerGPU = prep.Rate(cfg.Model, rt.prepCfg)

	rt.iterTime = cfg.Model.BatchTime(cfg.Spec.Gen, cfg.Batch, rt.gpuPrepOn)
	if cfg.NumServers > 1 {
		s := float64(cfg.NumServers)
		rt.commBytes = 2 * (s - 1) / s * cfg.Model.GradientBytes
		comm := rt.commBytes / cl.NIC(0).EffectiveBW()
		// Gradient exchange overlaps with backward compute; only the
		// excess shows up on the critical path (the paper rolls
		// communication into compute time, §2).
		if extra := comm - 0.5*rt.iterTime; extra > 0 {
			rt.commExtra = extra
		}
	}

	if pl := rt.plan(0); pl.iters < 1 {
		return nil, fmt.Errorf("trainer: dataset %s too small for %d servers x %d GPUs x batch %d",
			cfg.Dataset.Name, cfg.NumServers, cfg.GPUsPerServer, cfg.Batch)
	}

	rt.barrier = sim.NewBarrier(cfg.NumServers * cfg.GPUsPerServer)
	rt.epochBarrier = sim.NewBarrier(
		cfg.NumServers * cfg.GPUsPerServer * (1 + rt.producersPerGPU))
	rt.stores = make([][]*sim.Store[prepped], cfg.NumServers)
	rt.prepSrv = make([][]*sim.BandwidthServer, cfg.NumServers)
	for s := range rt.stores {
		rt.stores[s] = make([]*sim.Store[prepped], cfg.GPUsPerServer)
		rt.prepSrv[s] = make([]*sim.BandwidthServer, cfg.GPUsPerServer)
		for g := range rt.stores[s] {
			rt.stores[s][g] = sim.NewStore[prepped](cfg.PrefetchDepth)
			rt.prepSrv[s][g] = sim.NewBandwidthServer(eng)
		}
	}
	return rt, nil
}

// enableTraces turns on time-series collection; runJob calls it between
// runtime construction and launch once the observer list is known.
func (rt *jobRuntime) enableTraces(disk, cpu bool) {
	if disk {
		rt.traceDisk = true
		for i, srv := range rt.cl.Servers {
			srv.Disk.EnableTrace(fmt.Sprintf("disk-%d", i))
		}
	}
	if cpu {
		rt.cpuTrace = &stats.TimeSeries{Name: "prep-busy"}
	}
}

// plan returns (and memoizes) the epoch's per-server item orders and the
// iteration count, so the job's N GPUs and P producers share one shuffle
// per epoch. Old plans are dropped to bound memory, and a dropped plan's
// permutation buffer is recycled into the new epoch's orders.
func (rt *jobRuntime) plan(epoch int) *epochPlan {
	if pl, ok := rt.plans[epoch]; ok {
		return pl
	}
	var recycle *epochPlan
	if old, ok := rt.plans[epoch-2]; ok {
		recycle = old
	}
	pl := rt.src.orders(epoch, recycle)
	rt.plans[epoch] = pl
	delete(rt.plans, epoch-2)
	return pl
}

// launch spawns all producer and consumer processes: per GPU, its
// producers and then its consumer, each a callback state machine.
func (rt *jobRuntime) launch() {
	cfg := rt.cfg
	for s := 0; s < cfg.NumServers; s++ {
		for g := 0; g < cfg.GPUsPerServer; g++ {
			for k := 0; k < rt.producersPerGPU; k++ {
				sm := &producerSM{rt: rt, server: s, g: g, k: k}
				rt.eng.Spawn(fmt.Sprintf("prod-%d-%d-%d", s, g, k), sm.step)
			}
			sm := &consumerSM{rt: rt, server: s, g: g}
			rt.eng.Spawn(fmt.Sprintf("gpu-%d-%d", s, g), sm.step)
		}
	}
}

// producerState enumerates the producer's resume points.
type producerState int

const (
	psEpoch     producerState = iota // start the next epoch
	psTail                           // next epoch-0 owner-shard tail chunk
	psTailFetch                      // running a tail chunk's device ops
	psBatch                          // next batch, or the epoch barrier
	psFetch                          // running a batch's device ops
	psPrep                           // running the batch's prep
	psPut                            // handing the batch to the GPU's store
	psEpochDone                      // epoch barrier passed
	psDone
)

// producerSM is producer k of GPU g on a server: it fetches and
// pre-processes batches k, k+P, ... of the GPU's share of each epoch, hands
// them to the GPU's store and meets the consumers at the epoch barrier.
// FetchBatch resolves cache lookups at once and fills ops with the batch's
// device operations; the producer runs them back to back, then books the
// batch's prep.
type producerSM struct {
	rt           *jobRuntime
	server, g, k int
	state        producerState
	epoch        int
	pl           *epochPlan
	c            int // epoch-0 tail chunk
	it           int // iteration
	res          loader.FetchResult
	raw          float64 // fetched bytes of the current batch
	ops          sim.Ops
}

// step runs the producer until it waits (on a device, the store or the
// epoch barrier) or finishes.
func (sm *producerSM) step(p *sim.Proc) {
	rt := sm.rt
	cfg := rt.cfg
	for {
		switch sm.state {
		case psEpoch:
			if sm.epoch >= cfg.Epochs {
				sm.state = psDone
				return
			}
			sm.pl = rt.plan(sm.epoch)
			sm.c, sm.it = sm.k, sm.k
			sm.state = psBatch
			if sm.epoch == 0 && sm.g == 0 && rt.ownerShards != nil {
				// Partitioned caching populates each server's cache
				// with its *entire* owner shard in the first epoch
				// (§4.2); drop-last truncation must not leave a tail
				// uncached.
				sm.state = psTail
			}
		case psTail:
			tail := sm.pl.orders[sm.server][sm.pl.iters*cfg.Batch*cfg.GPUsPerServer:]
			i := sm.c * cfg.Batch
			if i >= len(tail) {
				sm.state = psBatch
				continue
			}
			j := min(i+cfg.Batch, len(tail))
			sm.ops.Reset()
			sm.res = rt.fetcher.FetchBatch(&sm.ops, sm.server, tail[i:j])
			sm.state = psTailFetch
		case psTailFetch:
			if !sm.ops.Run(p) {
				return
			}
			rt.fetch.Add(sm.res)
			sm.c += rt.producersPerGPU
			sm.state = psTail
		case psBatch:
			if sm.it >= sm.pl.iters {
				sm.state = psEpochDone
				if !rt.epochBarrier.Arrive(p) {
					return
				}
				continue
			}
			bi := sm.it*cfg.GPUsPerServer + sm.g
			items := sm.pl.orders[sm.server][bi*cfg.Batch : (bi+1)*cfg.Batch]
			sm.ops.Reset()
			sm.res = rt.fetcher.FetchBatch(&sm.ops, sm.server, items)
			sm.state = psFetch
		case psFetch:
			if !sm.ops.Run(p) {
				return
			}
			rt.fetch.Add(sm.res)
			sm.raw = sm.res.MemBytes + sm.res.DiskBytes + sm.res.NetBytes
			sm.state = psPut
			if cfg.FetchMode != Synthetic && sm.raw > 0 {
				sm.ops.Add(sim.Op{Srv: rt.prepSrv[sm.server][sm.g],
					Bytes: sm.raw, BW: rt.prepRatePerGPU})
				sm.state = psPrep
			}
		case psPrep:
			if !sm.ops.Run(p) {
				return
			}
			if rt.cpuTrace != nil {
				rt.cpuTrace.Add(p.Now(), sm.raw/rt.prepRatePerGPU)
			}
			sm.state = psPut
		case psPut:
			if !rt.stores[sm.server][sm.g].TryPut(p, prepped{rawBytes: sm.raw}) {
				return
			}
			sm.it += rt.producersPerGPU
			sm.state = psBatch
		case psEpochDone:
			sm.epoch++
			sm.state = psEpoch
		case psDone:
			return
		}
	}
}

// consumerState enumerates the consumer's resume points.
type consumerState int

const (
	csInit         consumerState = iota
	csLoop                       // decide: next iteration or epoch end
	csGet                        // trying to pop a prepped batch
	csCompute                    // woke from the iterTime wait
	csAfterBarrier               // iteration barrier passed; account comm
	csComm                       // woke from the comm-extra wait
	csEpochDone                  // epoch barrier passed
	csDone
)

// consumerSM is one GPU consumer: per iteration it takes a prepped batch
// from its store, computes for iterTime, meets the other GPUs at the
// iteration barrier and waits out any unoverlapped gradient exchange; at
// the epoch's end it meets the producers at the epoch barrier.
type consumerSM struct {
	rt        *jobRuntime
	server, g int
	state     consumerState
	epoch     int
	it        int
	samples   int
	pl        *epochPlan
}

// step runs the consumer until it waits (on its store, a barrier or a
// timed wake) or finishes.
func (sm *consumerSM) step(p *sim.Proc) {
	rt := sm.rt
	cfg := rt.cfg
	for {
		switch sm.state {
		case csInit:
			sm.pl = rt.plan(sm.epoch)
			sm.it = 0
			sm.state = csLoop
		case csLoop:
			if sm.it < sm.pl.iters {
				sm.state = csGet
				continue
			}
			sm.samples += sm.pl.iters * cfg.Batch * cfg.GPUsPerServer * cfg.NumServers
			// Snapshot before the epoch barrier: producers are waiting
			// there, so no next-epoch I/O has been issued yet.
			if sm.server == 0 && sm.g == 0 {
				rt.endEpoch(sm.samples)
			}
			sm.state = csEpochDone
			if !rt.epochBarrier.Arrive(p) {
				return
			}
		case csGet:
			if _, ok := rt.stores[sm.server][sm.g].TryGet(p); !ok {
				return // registered as a getter; re-stepped on wakeup
			}
			sm.state = csCompute
			p.WakeAfter(rt.iterTime)
			return
		case csCompute:
			sm.state = csAfterBarrier
			if !rt.barrier.Arrive(p) {
				return
			}
		case csAfterBarrier:
			if rt.commExtra > 0 {
				if sm.g == 0 {
					rt.cl.NIC(sm.server).AccountBytes(rt.commBytes)
				}
				sm.state = csComm
				p.WakeAfter(rt.commExtra)
				return
			}
			sm.it++
			sm.state = csLoop
		case csComm:
			sm.it++
			sm.state = csLoop
		case csEpochDone:
			sm.epoch++
			if sm.epoch >= cfg.Epochs {
				sm.state = csDone
				return
			}
			sm.pl = rt.plan(sm.epoch)
			sm.it = 0
			sm.state = csLoop
		case csDone:
			return
		}
	}
}

// endEpoch snapshots cumulative counters; called by the coordinator GPU at
// the epoch's final synchronization point. With observers attached it also
// streams the finished epoch's stats (and the next epoch's start).
func (rt *jobRuntime) endEpoch(samples int) {
	var reads int64
	for _, srv := range rt.cl.Servers {
		reads += srv.Disk.TotalRequests()
	}
	net := 0.0
	for _, n := range rt.cl.Fabric.NICs {
		net += n.TotalBytes()
	}
	occ := 0.0
	if cs, ok := rt.fetcher.(cacheSizer); ok {
		occ = cs.CacheUsedBytes()
	}
	rt.snaps = append(rt.snaps, snapshot{
		t:         rt.eng.Now(),
		disk:      rt.cl.TotalDiskBytes(),
		net:       net / 2, // each transfer charged at both endpoints
		diskReads: reads,
		fetch:     rt.fetch,
		samples:   samples,
		occ:       occ,
	})
	if len(rt.obs) == 0 {
		return
	}
	epoch := len(rt.snaps) - 1
	prev := snapshot{}
	if epoch > 0 {
		prev = rt.snaps[epoch-1]
	}
	rt.obs.emit(EpochEnded{
		Time: rt.eng.Now(), Epoch: epoch,
		Stats:          rt.epochStats(prev, rt.snaps[epoch]),
		CacheUsedBytes: occ,
	})
	if epoch+1 < rt.cfg.Epochs {
		rt.obs.emit(EpochStarted{Time: rt.eng.Now(), Epoch: epoch + 1})
	}
}

// epochStats converts two consecutive snapshots into one epoch's stats.
func (rt *jobRuntime) epochStats(prev, s snapshot) EpochStats {
	dur := s.t - prev.t
	epSamples := s.samples - prev.samples
	iters := epSamples / (rt.cfg.Batch * rt.cfg.GPUsPerServer * rt.cfg.NumServers)
	compute := float64(iters) * (rt.iterTime + rt.commExtra)
	es := EpochStats{
		Duration:    dur,
		ComputeTime: compute,
		StallTime:   dur - compute,
		DiskBytes:   s.disk - prev.disk,
		NetBytes:    s.net - prev.net,
		MemBytes:    s.fetch.MemBytes - prev.fetch.MemBytes,
		DiskReads:   int(s.diskReads - prev.diskReads),
		Hits:        s.fetch.Hits - prev.fetch.Hits,
		Misses:      s.fetch.Misses - prev.fetch.Misses,
		RemoteHits:  s.fetch.RemoteHit - prev.fetch.RemoteHit,
		Samples:     epSamples,
		// Occupancy is point-in-time, so it is not differenced.
		CacheUsedBytes: s.occ,
	}
	if es.StallTime < 0 {
		es.StallTime = 0
	}
	return es
}

// result converts snapshots into per-epoch stats.
func (rt *jobRuntime) result() *Result {
	r := &Result{}
	prev := snapshot{}
	for _, s := range rt.snaps {
		r.Epochs = append(r.Epochs, rt.epochStats(prev, s))
		prev = s
	}
	r.TotalDiskBytes = rt.cl.TotalDiskBytes()
	for _, n := range rt.cl.Fabric.NICs {
		r.TotalNetBytes += n.TotalBytes()
	}
	r.TotalTime = rt.eng.Now()
	if rt.traceDisk {
		r.DiskTrace = rt.cl.Servers[0].Disk.Trace
	}
	r.CPUTrace = rt.cpuTrace
	r.steadyState()
	return r
}
