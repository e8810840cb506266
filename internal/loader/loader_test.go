package loader

import (
	"testing"

	"datastall/internal/cluster"
	"datastall/internal/dataset"
	"datastall/internal/sim"
	"datastall/internal/stats"
)

func testEnv(nServers int) (*sim.Engine, *cluster.Cluster, *dataset.Dataset) {
	e := sim.New()
	cl := cluster.Build(e, cluster.ConfigSSDV100(), nServers)
	d := &dataset.Dataset{Name: "t", NumItems: 200, TotalBytes: 200 * 100 * stats.KiB}
	return e, cl, d
}

// fetchProc is a test process that fetches batches in turn on server 0,
// running each batch's device ops before fetching the next.
type fetchProc struct {
	res  []FetchResult
	done float64 // completion time of the last batch's ops
}

// fetchAll spawns a fetchProc that sleeps at seconds and then fetches
// batches through f.
func fetchAll(e *sim.Engine, f Fetcher, at float64, batches ...[]dataset.ItemID) *fetchProc {
	fp := &fetchProc{}
	var ops sim.Ops
	slept := at == 0
	e.Spawn("fetch", func(p *sim.Proc) {
		if !slept {
			slept = true
			p.WakeAfter(at)
			return
		}
		for {
			if !ops.Run(p) {
				return
			}
			fp.done = p.Now()
			if len(fp.res) == len(batches) {
				return
			}
			ops.Reset()
			fp.res = append(fp.res, f.FetchBatch(&ops, 0, batches[len(fp.res)]))
		}
	})
	return fp
}

func TestKindStrings(t *testing.T) {
	cases := map[Kind]string{
		DALIShuffle: "dali-shuffle", DALISeq: "dali-seq",
		PyTorchDL: "pytorch-dl", CoorDL: "coordl",
	}
	for k, want := range cases {
		if k.String() != want {
			t.Fatalf("%d: %s != %s", k, k.String(), want)
		}
	}
	if Kind(99).String() != "unknown" {
		t.Fatal("unknown kind string")
	}
}

func TestFetchResultAdd(t *testing.T) {
	a := FetchResult{MemBytes: 1, DiskBytes: 2, NetBytes: 3, DiskItems: 4, Hits: 5, RemoteHit: 6, Misses: 7}
	b := a
	a.Add(b)
	if a.MemBytes != 2 || a.DiskBytes != 4 || a.NetBytes != 6 ||
		a.DiskItems != 8 || a.Hits != 10 || a.RemoteHit != 12 || a.Misses != 14 {
		t.Fatalf("bad add: %+v", a)
	}
}

func TestPageCacheFetcherColdThenWarm(t *testing.T) {
	e, cl, d := testEnv(1)
	f := NewPageCacheFetcher(d, cl, d.TotalBytes, 1) // cache fits everything
	items := []dataset.ItemID{0, 1, 2, 3}
	fp := fetchAll(e, f, 0, items, items)
	e.Run()
	cold, warm := fp.res[0], fp.res[1]
	if cold.Misses != 4 || cold.DiskItems != 4 {
		t.Fatalf("cold: %+v", cold)
	}
	if warm.Hits != 4 || warm.DiskBytes != 0 {
		t.Fatalf("warm: %+v", warm)
	}
	if cl.Servers[0].Disk.TotalBytes() != cold.DiskBytes {
		t.Fatal("disk not charged")
	}
}

func TestPageCacheFetcherSeeksPerItem(t *testing.T) {
	e, cl, d := testEnv(1)
	f := NewPageCacheFetcher(d, cl, 1, 1) // cache too small: all misses
	f.SeeksPerItem = 3
	fp := fetchAll(e, f, 0, []dataset.ItemID{0, 1})
	e.Run()
	if r := fp.res[0]; r.DiskItems != 6 {
		t.Fatalf("disk items %d, want 2 items x 3 seeks", r.DiskItems)
	}
	if cl.Servers[0].Disk.TotalRequests() != 1 {
		t.Fatal("batch should aggregate into one device request")
	}
}

func TestPageCacheSharedAcrossCallers(t *testing.T) {
	// Fetchers are shared per server: a second job benefits from (and
	// interferes with) the first job's cache contents.
	e, cl, d := testEnv(1)
	f := NewPageCacheFetcher(d, cl, d.TotalBytes, 1)
	fetchAll(e, f, 0, []dataset.ItemID{7, 8})
	job2 := fetchAll(e, f, 100, []dataset.ItemID{7, 8})
	e.Run()
	if second := job2.res[0]; second.Hits != 2 {
		t.Fatalf("cross-job hits %d, want 2", second.Hits)
	}
}

func TestSyntheticFetcherFree(t *testing.T) {
	e, _, _ := testEnv(1)
	fp := fetchAll(e, SyntheticFetcher{}, 0, []dataset.ItemID{0, 1, 2})
	e.Run()
	r, took := fp.res[0], fp.done
	if took != 0 || r.Hits != 3 || r.DiskBytes != 0 {
		t.Fatalf("synthetic fetch not free: t=%v %+v", took, r)
	}
}

func TestCachedFetcherChargesMemoryOnly(t *testing.T) {
	e, cl, d := testEnv(1)
	f := &CachedFetcher{Dataset: d, Cluster: cl}
	fp := fetchAll(e, f, 0, []dataset.ItemID{0, 1})
	e.Run()
	r, took := fp.res[0], fp.done
	if r.MemBytes != 2*d.AvgItemBytes() || r.DiskBytes != 0 {
		t.Fatalf("cached fetch: %+v", r)
	}
	if took <= 0 {
		t.Fatal("memory copy should take (a little) time")
	}
	if cl.Servers[0].Disk.TotalBytes() != 0 {
		t.Fatal("cached fetch touched disk")
	}
}

func TestTFRecordFetcherRecordGranularity(t *testing.T) {
	e, cl, d := testEnv(1)
	rec := 10 * d.AvgItemBytes() // 10 items per record
	f := NewTFRecordFetcher(d, cl, d.TotalBytes, rec, 1)
	if f.Record(0) != f.Record(9) || f.Record(0) == f.Record(10) {
		t.Fatal("record mapping wrong")
	}
	// Items 0..9 share a record; 10 starts the next.
	fp := fetchAll(e, f, 0, []dataset.ItemID{0, 5, 9, 10})
	e.Run()
	r := fp.res[0]
	if r.Misses != 2 {
		t.Fatalf("misses %d, want 2 records", r.Misses)
	}
	if r.DiskBytes != 2*rec {
		t.Fatalf("disk bytes %v, want 2 records", r.DiskBytes)
	}
	// Second batch over the same records: all hits, memory only.
	fp = fetchAll(e, f, 0, []dataset.ItemID{1, 11})
	e.Run()
	r2 := fp.res[0]
	if r2.Hits != 2 || r2.DiskBytes != 0 {
		t.Fatalf("warm record fetch: %+v", r2)
	}
}

func TestTFRecordFetcherEviction(t *testing.T) {
	e, cl, d := testEnv(1)
	rec := 10 * d.AvgItemBytes()
	f := NewTFRecordFetcher(d, cl, 2*rec, rec, 1) // cache holds 2 records
	var batches [][]dataset.ItemID
	for i := 0; i < 20; i++ {
		batches = append(batches, []dataset.ItemID{dataset.ItemID(i * 10)})
	}
	fetchAll(e, f, 0, batches...)
	e.Run()
	if f.Caches[0].UsedBytes() > 2*rec {
		t.Fatal("record cache exceeded capacity")
	}
	if cl.Servers[0].Disk.TotalBytes() < 18*rec {
		t.Fatal("expected most record fetches to miss")
	}
}
