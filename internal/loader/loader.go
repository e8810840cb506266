// Package loader provides the fetch side of the data pipeline: Fetcher
// implementations that resolve a minibatch of item IDs into timed cache,
// disk, and network operations. The baseline loaders (PyTorch DL, DALI-seq,
// DALI-shuffle) fetch through the shared OS page cache; CoorDL's fetchers
// (MinIO, partitioned) live in internal/core.
package loader

import (
	"datastall/internal/cache"
	"datastall/internal/cluster"
	"datastall/internal/dataset"
	"datastall/internal/pagecache"
	"datastall/internal/sim"
)

// Kind names a data-loading configuration from the paper's evaluation.
type Kind int

// Loader kinds.
const (
	// DALIShuffle is DALI reading the dataset in randomized order
	// (random reads, like the native PyTorch loader) — the paper's
	// strongest baseline.
	DALIShuffle Kind = iota
	// DALISeq is DALI's default FileReader mode: file-order reads with an
	// in-memory shuffle buffer. The cyclic access order defeats the OS
	// page cache.
	DALISeq
	// PyTorchDL is the native PyTorch DataLoader (Pillow/TorchVision
	// pre-processing, random reads).
	PyTorchDL
	// CoorDL is the paper's coordinated loader (MinIO cache, partitioned
	// caching, coordinated prep).
	CoorDL
)

// String returns the loader name.
func (k Kind) String() string {
	switch k {
	case DALIShuffle:
		return "dali-shuffle"
	case DALISeq:
		return "dali-seq"
	case PyTorchDL:
		return "pytorch-dl"
	case CoorDL:
		return "coordl"
	}
	return "unknown"
}

// PyTorchSeeksPerItem is the native PyTorch DataLoader's scattered-read
// cost: each item is demand-paged as several partially-merged reads instead
// of one whole-file read (Appendix E.2.1).
const PyTorchSeeksPerItem = 3

// FetchResult reports where a batch's bytes came from.
type FetchResult struct {
	MemBytes  float64 // served from local cache (DRAM)
	DiskBytes float64 // served from local storage
	NetBytes  float64 // served from a remote server's cache
	DiskItems int     // random reads issued (seeks)
	Hits      int     // local cache hits
	RemoteHit int     // remote cache hits (partitioned only)
	Misses    int     // storage fetches
}

// Add accumulates o into r.
func (r *FetchResult) Add(o FetchResult) {
	r.MemBytes += o.MemBytes
	r.DiskBytes += o.DiskBytes
	r.NetBytes += o.NetBytes
	r.DiskItems += o.DiskItems
	r.Hits += o.Hits
	r.RemoteHit += o.RemoteHit
	r.Misses += o.Misses
}

// Fetcher resolves item fetches into timed device operations. Fetchers are
// shared per server across all jobs on that server, which is how cross-job
// cache interference (HP-search thrashing) arises.
type Fetcher interface {
	// FetchBatch fetches items on behalf of a job running on server. It
	// does the batch's cache lookups at once and appends the batch's
	// device operations to ops in the order they run — the storage read,
	// then remote NIC transfers in server order, then the DRAM copy — for
	// the calling process to run (sim.Ops.Run).
	FetchBatch(ops *sim.Ops, server int, items []dataset.ItemID) FetchResult
}

// PageCacheFetcher is the baseline fetch path: all reads go through the OS
// page cache of the server; misses hit local storage with random reads.
type PageCacheFetcher struct {
	Dataset *dataset.Dataset
	Cluster *cluster.Cluster
	Caches  []*pagecache.Cache // one per server, shared across jobs
	// SeeksPerItem models read granularity: DALI issues one whole-file
	// read per item (1); the native PyTorch loader demand-pages each
	// item's ~28 pages with partial readahead merging, costing several
	// scattered reads per item (Appendix E.2.1). Zero means 1.
	SeeksPerItem int
}

// NewPageCacheFetcher builds page caches of capBytes per server.
func NewPageCacheFetcher(d *dataset.Dataset, c *cluster.Cluster, capBytes float64, seed int64) *PageCacheFetcher {
	f := &PageCacheFetcher{Dataset: d, Cluster: c}
	for i := range c.Servers {
		f.Caches = append(f.Caches, pagecache.New(pagecache.TwoList, capBytes, seed+int64(i)))
	}
	return f
}

// CacheUsedBytes reports page-cache occupancy summed across servers (the
// trainer's EpochEnded observer events surface it).
func (f *PageCacheFetcher) CacheUsedBytes() float64 { return cache.SumUsedBytes(f.Caches) }

// FetchBatch implements Fetcher.
func (f *PageCacheFetcher) FetchBatch(ops *sim.Ops, server int, items []dataset.ItemID) FetchResult {
	var r FetchResult
	pc := f.Caches[server]
	spi := f.SeeksPerItem
	if spi < 1 {
		spi = 1
	}
	for _, id := range items {
		sz := f.Dataset.ItemBytes(id)
		if pc.Lookup(id) {
			r.MemBytes += sz
			r.Hits++
		} else {
			r.DiskBytes += sz
			r.DiskItems += spi
			r.Misses++
			pc.Insert(id, sz)
		}
	}
	srv := f.Cluster.Servers[server]
	srv.Disk.ReadRandom(ops, r.DiskBytes, r.DiskItems)
	srv.Mem.Read(ops, r.MemBytes)
	return r
}

// SyntheticFetcher models DS-Analyzer phase 1: data is pre-populated at the
// GPUs, so fetch costs nothing (measures pure GPU ingestion rate).
type SyntheticFetcher struct{}

// FetchBatch implements Fetcher at zero cost.
func (SyntheticFetcher) FetchBatch(ops *sim.Ops, server int, items []dataset.ItemID) FetchResult {
	return FetchResult{Hits: len(items)}
}

// CachedFetcher models DS-Analyzer phase 2: the whole working set resides in
// DRAM, so every fetch is a memory copy (isolates prep stalls).
type CachedFetcher struct {
	Dataset *dataset.Dataset
	Cluster *cluster.Cluster
}

// FetchBatch implements Fetcher.
func (f *CachedFetcher) FetchBatch(ops *sim.Ops, server int, items []dataset.ItemID) FetchResult {
	var r FetchResult
	for _, id := range items {
		r.MemBytes += f.Dataset.ItemBytes(id)
		r.Hits++
	}
	f.Cluster.Servers[server].Mem.Read(ops, r.MemBytes)
	return r
}

// TFRecordFetcher models TensorFlow's serialized-record format (§3.3.3):
// items are packed into large record files read sequentially; the page
// cache operates at record granularity and the cyclic scan order thrashes
// its LRU lists (Table 3).
type TFRecordFetcher struct {
	Dataset *dataset.Dataset
	Cluster *cluster.Cluster
	Caches  []*pagecache.Cache
	// RecordBytes is the serialized file size (100-200 MB in TF).
	RecordBytes float64
	itemsPerRec int
	// seen is FetchBatch's reusable scratch set of the batch's records.
	seen map[dataset.ItemID]bool
}

// NewTFRecordFetcher builds a record-granular fetcher with per-server page
// caches of capBytes.
func NewTFRecordFetcher(d *dataset.Dataset, c *cluster.Cluster, capBytes, recordBytes float64, seed int64) *TFRecordFetcher {
	f := &TFRecordFetcher{Dataset: d, Cluster: c, RecordBytes: recordBytes,
		seen: make(map[dataset.ItemID]bool)}
	f.itemsPerRec = int(recordBytes / d.AvgItemBytes())
	if f.itemsPerRec < 1 {
		f.itemsPerRec = 1
	}
	for i := range c.Servers {
		f.Caches = append(f.Caches, pagecache.New(pagecache.TwoList, capBytes, seed+int64(i)))
	}
	return f
}

// CacheUsedBytes reports record-cache occupancy summed across servers.
func (f *TFRecordFetcher) CacheUsedBytes() float64 { return cache.SumUsedBytes(f.Caches) }

// Record returns the record-file index holding item id.
func (f *TFRecordFetcher) Record(id dataset.ItemID) dataset.ItemID {
	return dataset.ItemID(int(id) / f.itemsPerRec)
}

// FetchBatch implements Fetcher: a batch touches the records containing its
// items; uncached records stream from disk sequentially.
func (f *TFRecordFetcher) FetchBatch(ops *sim.Ops, server int, items []dataset.ItemID) FetchResult {
	var r FetchResult
	pc := f.Caches[server]
	clear(f.seen)
	for _, id := range items {
		rec := f.Record(id)
		if f.seen[rec] {
			continue // same record already read for this batch
		}
		f.seen[rec] = true
		if pc.Lookup(rec) {
			r.MemBytes += f.RecordBytes
			r.Hits++
		} else {
			r.DiskBytes += f.RecordBytes
			r.DiskItems++
			r.Misses++
			pc.Insert(rec, f.RecordBytes)
		}
	}
	srv := f.Cluster.Servers[server]
	srv.Disk.ReadSequential(ops, r.DiskBytes)
	srv.Mem.Read(ops, r.MemBytes)
	return r
}
