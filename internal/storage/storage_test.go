package storage

import (
	"math"
	"testing"

	"datastall/internal/sim"
	"datastall/internal/stats"
)

func TestEffectiveRandomBW(t *testing.T) {
	// HDD random reads of ~300KB items should land in the paper's
	// 15-50 MB/s window (Table 2).
	bw := HDD.EffectiveRandomBW(300 * stats.KiB)
	if mbps := bw / stats.MiB; mbps < 15 || mbps > 50 {
		t.Fatalf("HDD effective random bw = %.1f MB/s, want 15-50", mbps)
	}
	// SSD random reads stay near the rated 530 MB/s.
	bw = SSD.EffectiveRandomBW(150 * stats.KiB)
	if mbps := bw / stats.MiB; mbps < 400 || mbps > 560 {
		t.Fatalf("SSD effective random bw = %.1f MB/s, want ~530", mbps)
	}
}

// run spawns a process that sleeps at seconds, then runs ops back to back
// and records the time they complete in done.
func run(e *sim.Engine, at float64, ops *sim.Ops, done *float64) {
	slept := at == 0
	e.Spawn("r", func(p *sim.Proc) {
		if !slept {
			slept = true
			p.WakeAfter(at)
			return
		}
		if ops.Run(p) {
			*done = p.Now()
		}
	})
}

func TestDiskReadTiming(t *testing.T) {
	e := sim.New()
	d := NewDisk(e, DeviceSpec{Name: "t", SeqBW: 100, SeekTime: 1})
	var ops sim.Ops
	d.ReadRandom(&ops, 200, 2) // 2 seeks (2s) + 200/100 (2s) = 4s
	var done float64
	run(e, 0, &ops, &done)
	e.Run()
	if done != 4 {
		t.Fatalf("read finished at %v, want 4", done)
	}
	if d.TotalBytes() != 200 || d.TotalRequests() != 1 {
		t.Fatalf("stats: %v bytes %d reqs", d.TotalBytes(), d.TotalRequests())
	}
}

func TestDiskFIFOContention(t *testing.T) {
	e := sim.New()
	d := NewDisk(e, DeviceSpec{Name: "t", SeqBW: 100, SeekTime: 0})
	var a, b sim.Ops
	d.ReadSequential(&a, 1000) // 10s
	d.ReadSequential(&b, 100)  // at t=1 queues: done at 11
	var t1, t2 float64
	run(e, 0, &a, &t1)
	run(e, 1, &b, &t2)
	e.Run()
	if t1 != 10 || t2 != 11 {
		t.Fatalf("t1=%v t2=%v, want 10, 11", t1, t2)
	}
	if d.QueueDelay() != 9 {
		t.Fatalf("queue delay %v, want 9", d.QueueDelay())
	}
}

func TestDiskTrace(t *testing.T) {
	e := sim.New()
	d := NewDisk(e, SSD)
	d.EnableTrace("io")
	var ops sim.Ops
	for i := 0; i < 3; i++ {
		d.ReadRandom(&ops, stats.MiB, 1)
	}
	var done float64
	run(e, 0, &ops, &done)
	e.Run()
	if d.Trace.Len() != 3 {
		t.Fatalf("trace has %d points", d.Trace.Len())
	}
	if math.Abs(d.Trace.Sum()-3*stats.MiB) > 1 {
		t.Fatalf("trace sum %v", d.Trace.Sum())
	}
	if d.Trace.Times[2] != done {
		t.Fatalf("last sample at %v, want the completion time %v", d.Trace.Times[2], done)
	}
}

func TestMemoryRead(t *testing.T) {
	e := sim.New()
	m := NewMemory(1000)
	var ops sim.Ops
	m.Read(&ops, 500)
	var done float64
	run(e, 0, &ops, &done)
	e.Run()
	if done != 0.5 {
		t.Fatalf("memory read at %v, want 0.5", done)
	}
	if m.Bytes != 500 {
		t.Fatalf("bytes %v", m.Bytes)
	}
}

func TestZeroByteReadsAreFree(t *testing.T) {
	e := sim.New()
	d := NewDisk(e, SSD)
	m := NewMemory(1000)
	var ops sim.Ops
	d.ReadRandom(&ops, 0, 0)
	d.ReadSequential(&ops, 0)
	m.Read(&ops, 0)
	done := -1.0
	run(e, 0, &ops, &done)
	e.Run()
	if done != 0 {
		t.Fatalf("zero reads consumed time: %v", done)
	}
	if d.TotalRequests() != 0 {
		t.Fatalf("zero reads booked %d requests", d.TotalRequests())
	}
}
