package trainer

import (
	"context"
	"testing"

	"datastall/internal/cluster"
	"datastall/internal/dataset"
	"datastall/internal/gpu"
	"datastall/internal/loader"
	"datastall/internal/race"
)

// maxAllocsPerEpoch bounds the allocations one extra epoch adds to a job:
// the epoch's plan and orders, its snapshot and amortized slice growth.
// None of it may scale with the number of batches.
const maxAllocsPerEpoch = 10

// TestAllocsProducerPath is the allocation guard on the producer path —
// fetcher lookups, device ops, prep, store handoff — for the page-cache,
// MinIO, partitioned and TFRecord fetchers. Two extra epochs may add at
// most maxAllocsPerEpoch allocations each, and that holds at two dataset
// sizes: doubling the dataset doubles the batches per epoch (80 -> 160
// here), so a single per-batch allocation would overshoot the bound.
func TestAllocsProducerPath(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates on otherwise allocation-free paths")
	}
	cases := []struct {
		name string
		cfg  func(d *dataset.Dataset) Config
	}{
		{"pagecache", func(*dataset.Dataset) Config { return Config{Loader: loader.DALIShuffle} }},
		{"minio", func(*dataset.Dataset) Config { return Config{Loader: loader.CoorDL} }},
		{"partitioned", func(*dataset.Dataset) Config { return Config{Loader: loader.CoorDL, NumServers: 2} }},
		{"tfrecord", func(d *dataset.Dataset) Config {
			return Config{Loader: loader.DALIShuffle, RecordBytes: 50 * d.AvgItemBytes()}
		}},
	}
	for _, c := range cases {
		for _, scale := range []float64{0.004, 0.008} {
			d := dataset.ImageNet1K.Scale(scale)
			cfg := c.cfg(d)
			cfg.Model = gpu.MustByName("resnet18")
			cfg.Dataset = d
			cfg.Spec = cluster.ConfigSSDV100()
			cfg.CacheBytes = 0.5 * d.TotalBytes
			cfg.Batch, cfg.GPUsPerServer = 32, 2
			allocs := func(epochs int) float64 {
				cfg := cfg
				cfg.Epochs = epochs
				return testing.AllocsPerRun(3, func() {
					if _, err := RunContext(context.Background(), cfg); err != nil {
						t.Fatal(err)
					}
				})
			}
			perEpoch := (allocs(4) - allocs(2)) / 2
			if perEpoch > maxAllocsPerEpoch {
				t.Errorf("%s, %d items: %v allocs per extra epoch, want <= %d",
					c.name, d.NumItems, perEpoch, maxAllocsPerEpoch)
			}
		}
	}
}
