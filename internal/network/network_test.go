package network

import (
	"math"
	"testing"

	"datastall/internal/sim"
	"datastall/internal/stats"
)

func TestEffectiveBWExceedsSSD(t *testing.T) {
	// §4.2: cross-node bandwidth must be several times local SATA SSD
	// read bandwidth (530 MB/s) for partitioned caching to make sense.
	if bw := Ethernet40G.RawBW * Ethernet40G.Efficiency; bw < 3*530*stats.MiB {
		t.Fatalf("40GbE effective bw %.0f MB/s too low", bw/stats.MiB)
	}
}

// run spawns a process that runs ops back to back and records the time
// they complete in done.
func run(e *sim.Engine, ops *sim.Ops, done *float64) {
	e.Spawn("x", func(p *sim.Proc) {
		if ops.Run(p) {
			*done = p.Now()
		}
	})
}

func TestTransferTiming(t *testing.T) {
	e := sim.New()
	n := NewNIC(e, LinkSpec{Name: "t", RawBW: 1000, Efficiency: 0.5, RTT: 1})
	var ops sim.Ops
	n.Transfer(&ops, 500, 2) // 2 RTT (2s) + 500/500 (1s) = 3s
	var done float64
	run(e, &ops, &done)
	e.Run()
	if done != 3 {
		t.Fatalf("transfer done at %v, want 3", done)
	}
	if n.TotalBytes() != 500 {
		t.Fatalf("bytes %v", n.TotalBytes())
	}
}

func TestNICContention(t *testing.T) {
	e := sim.New()
	n := NewNIC(e, LinkSpec{Name: "t", RawBW: 100, Efficiency: 1, RTT: 0})
	var a, b sim.Ops
	n.Transfer(&a, 1000, 0)
	n.Transfer(&b, 1000, 0)
	var t1, t2 float64
	run(e, &a, &t1)
	run(e, &b, &t2)
	e.Run()
	if t1 != 10 || t2 != 20 {
		t.Fatalf("t1=%v t2=%v, want FIFO 10/20", t1, t2)
	}
}

func TestFabricRemoteFetchChargesBothEnds(t *testing.T) {
	e := sim.New()
	f := NewFabric(e, 2, LinkSpec{Name: "t", RawBW: 100, Efficiency: 1, RTT: 0})
	var ops sim.Ops
	f.RemoteFetch(&ops, 0, 1, 500, 1)
	var done float64
	run(e, &ops, &done)
	e.Run()
	if f.NICs[0].TotalBytes() != 500 || f.NICs[1].TotalBytes() != 500 {
		t.Fatalf("bytes: dst=%v src=%v", f.NICs[0].TotalBytes(), f.NICs[1].TotalBytes())
	}
	if math.Abs(f.TotalBytes()-1000) > 1e-9 {
		t.Fatalf("fabric total %v", f.TotalBytes())
	}
	// The receive leg starts when the send leg completes: 5s + 5s.
	if done != 10 {
		t.Fatalf("remote fetch done at %v, want 10", done)
	}
}

func TestZeroTransferFree(t *testing.T) {
	e := sim.New()
	n := NewNIC(e, Ethernet40G)
	var ops sim.Ops
	n.Transfer(&ops, 0, 0)
	done := -1.0
	run(e, &ops, &done)
	e.Run()
	if done != 0 {
		t.Fatalf("zero transfer took %v", done)
	}
}
