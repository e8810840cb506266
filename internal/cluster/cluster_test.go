package cluster

import (
	"testing"

	"datastall/internal/gpu"
	"datastall/internal/sim"
	"datastall/internal/stats"
)

func TestSKUsMatchTable2(t *testing.T) {
	ssd := ConfigSSDV100()
	if ssd.NumGPUs != 8 || ssd.PhysicalCores != 24 || ssd.DRAMBytes != 500*stats.GiB {
		t.Fatalf("Config-SSD-V100 mismatch: %+v", ssd)
	}
	if ssd.Gen != gpu.V100 || ssd.Disk.Name != "ssd" {
		t.Fatal("Config-SSD-V100 hardware mismatch")
	}
	hdd := ConfigHDD1080Ti()
	if hdd.Gen != gpu.GTX1080Ti || hdd.Disk.Name != "hdd" {
		t.Fatal("Config-HDD-1080Ti hardware mismatch")
	}
	if hdd.NumGPUs != 8 || hdd.PhysicalCores != 24 {
		t.Fatal("Config-HDD-1080Ti sizing mismatch")
	}
	hc := HighCPUV100()
	if hc.PhysicalCores != 32 || hc.VCPUs != 64 {
		t.Fatal("HighCPU SKU mismatch (Appendix B.1)")
	}
}

func TestBuild(t *testing.T) {
	e := sim.New()
	c := Build(e, ConfigSSDV100(), 3)
	if len(c.Servers) != 3 || c.TotalGPUs() != 24 {
		t.Fatalf("build: %d servers, %d GPUs", len(c.Servers), c.TotalGPUs())
	}
	for i, s := range c.Servers {
		if s.Index != i || s.Disk == nil || s.Mem == nil || s.Staging == nil {
			t.Fatalf("server %d incomplete", i)
		}
	}
	if c.NIC(0) == c.NIC(1) {
		t.Fatal("servers must have distinct NICs")
	}
}

func TestTotalDiskBytes(t *testing.T) {
	e := sim.New()
	c := Build(e, ConfigSSDV100(), 2)
	var ops sim.Ops
	c.Servers[0].Disk.ReadRandom(&ops, 100, 1)
	c.Servers[1].Disk.ReadRandom(&ops, 50, 1)
	e.Spawn("r", func(p *sim.Proc) { ops.Run(p) })
	e.Run()
	if c.TotalDiskBytes() != 150 {
		t.Fatalf("total disk bytes %v", c.TotalDiskBytes())
	}
}
