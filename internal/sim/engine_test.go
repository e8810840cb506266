package sim

import (
	"math/rand"
	"testing"
	"testing/quick"

	"datastall/internal/stats"
)

// sleepThen returns a process step that waits d seconds and then runs fn.
func sleepThen(d float64, fn func(p *Proc)) func(p *Proc) {
	slept := false
	return func(p *Proc) {
		if !slept {
			slept = true
			p.WakeAfter(d)
			return
		}
		fn(p)
	}
}

func TestSleepOrdering(t *testing.T) {
	e := New()
	var order []int
	e.Spawn("a", sleepThen(2, func(*Proc) { order = append(order, 2) }))
	e.Spawn("b", sleepThen(1, func(*Proc) { order = append(order, 1) }))
	e.Spawn("c", sleepThen(3, func(*Proc) { order = append(order, 3) }))
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("wrong order: %v", order)
	}
	if e.Now() != 3 {
		t.Fatalf("clock = %v, want 3", e.Now())
	}
}

func TestTieBreakBySpawnOrder(t *testing.T) {
	e := New()
	var order []string
	for _, name := range []string{"x", "y", "z"} {
		e.Spawn(name, sleepThen(5, func(*Proc) { order = append(order, name) }))
	}
	e.Run()
	if order[0] != "x" || order[1] != "y" || order[2] != "z" {
		t.Fatalf("tie-break violated: %v", order)
	}
}

func TestScheduleCallback(t *testing.T) {
	e := New()
	fired := 0.0
	e.Schedule(7, func() { fired = e.Now() })
	e.Run()
	if fired != 7 {
		t.Fatalf("callback at %v, want 7", fired)
	}
}

func TestStoreBlockingFIFO(t *testing.T) {
	e := New()
	s := NewStore[int](2)
	var got []int
	sent := 0
	e.Spawn("producer", func(p *Proc) {
		for sent < 5 && s.TryPut(p, sent) {
			sent++
		}
	})
	slept := false
	e.Spawn("consumer", func(p *Proc) {
		for len(got) < 5 {
			if !slept {
				slept = true
				p.WakeAfter(1)
				return
			}
			v, ok := s.TryGet(p)
			if !ok {
				return
			}
			slept = false
			got = append(got, v)
		}
	})
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("out of order: %v", got)
		}
	}
	if len(got) != 5 {
		t.Fatalf("got %d values", len(got))
	}
}

func TestStorePutBlocksWhenFull(t *testing.T) {
	e := New()
	s := NewStore[int](1)
	var putDone float64
	sent := 0
	e.Spawn("producer", func(p *Proc) {
		for sent < 2 {
			if !s.TryPut(p, sent+1) {
				return // second put waits until the consumer drains at t=10
			}
			sent++
		}
		putDone = p.Now()
	})
	state := 0
	e.Spawn("consumer", func(p *Proc) {
		for state < 4 {
			switch state {
			case 0, 2: // sleep 10
				state++
				p.WakeAfter(10)
				return
			case 1, 3: // get
				if _, ok := s.TryGet(p); !ok {
					return
				}
				state++
			}
		}
	})
	e.Run()
	if putDone != 10 {
		t.Fatalf("second put completed at %v, want 10", putDone)
	}
}

// arriver returns a process step that sleeps d, waits at b and then runs fn.
func arriver(b *Barrier, d float64, fn func(p *Proc)) func(p *Proc) {
	state := 0
	return func(p *Proc) {
		switch state {
		case 0:
			state = 1
			p.WakeAfter(d)
		case 1:
			state = 2
			if b.Arrive(p) {
				fn(p)
			}
		case 2:
			fn(p)
		}
	}
}

func TestBarrier(t *testing.T) {
	e := New()
	b := NewBarrier(3)
	var done []float64
	for i := 0; i < 3; i++ {
		e.Spawn("w", arriver(b, float64(i+1), func(p *Proc) {
			done = append(done, p.Now())
		}))
	}
	e.Run()
	if len(done) != 3 {
		t.Fatalf("only %d passed barrier", len(done))
	}
	for _, d := range done {
		if d != 3 {
			t.Fatalf("barrier released at %v, want 3", d)
		}
	}
}

func TestBarrierReusable(t *testing.T) {
	e := New()
	b := NewBarrier(2)
	rounds := 0
	for i := 0; i < 2; i++ {
		r, waiting, slept := 0, false, false
		e.Spawn("w", func(p *Proc) {
			for ; r < 5; r++ {
				if waiting { // resumed by the barrier
					waiting, slept = false, false
					continue
				}
				if !slept {
					slept = true
					p.WakeAfter(1)
					return
				}
				if !b.Arrive(p) {
					waiting = true
					return
				}
				slept = false
			}
			rounds++
		})
	}
	e.Run()
	if rounds != 2 {
		t.Fatalf("rounds = %d, want 2", rounds)
	}
}

// requester returns a process step that sleeps at, books bytes at bw on d
// and records the completion time in done.
func requester(d *BandwidthServer, at, bytes, bw, overhead float64, done *float64) func(p *Proc) {
	state := 0
	return func(p *Proc) {
		switch state {
		case 0:
			state = 1
			if at > 0 {
				p.WakeAfter(at)
				return
			}
			fallthrough
		case 1:
			state = 2
			if p.WakeAt(d.Request(bytes, bw, overhead)) {
				return
			}
			fallthrough
		case 2:
			*done = p.Now()
		}
	}
}

func TestBandwidthServerQueueing(t *testing.T) {
	e := New()
	d := NewBandwidthServer(e)
	var t1, t2 float64
	e.Spawn("a", requester(d, 0, 100, 10, 0, &t1)) // 10s service
	e.Spawn("b", requester(d, 1, 100, 10, 0, &t2)) // queues behind a, finishes at 20
	e.Run()
	if t1 != 10 {
		t.Fatalf("t1 = %v, want 10", t1)
	}
	if t2 != 20 {
		t.Fatalf("t2 = %v, want 20", t2)
	}
	if d.Waited != 9 {
		t.Fatalf("Waited = %v, want 9", d.Waited)
	}
	if d.Bytes != 200 || d.Requests != 2 {
		t.Fatalf("stats: bytes=%v reqs=%d", d.Bytes, d.Requests)
	}
}

func TestBandwidthServerOverhead(t *testing.T) {
	e := New()
	d := NewBandwidthServer(e)
	var done float64
	e.Spawn("a", requester(d, 0, 100, 100, 2.5, &done))
	e.Run()
	if done != 3.5 {
		t.Fatalf("done = %v, want 3.5", done)
	}
}

// TestOpsRunBackToBack: each op is booked when the previous completes, so
// a process's second transfer — even a zero-length one — queues behind a
// competitor that booked in between; a DRAM copy always takes its copy
// time; traced ops sample at completion.
func TestOpsRunBackToBack(t *testing.T) {
	e := New()
	d := NewBandwidthServer(e)
	trace := &stats.TimeSeries{}
	var ops Ops
	ops.Add(Op{Srv: d, Bytes: 100, BW: 100, Trace: trace}) // t=0..1
	ops.Add(Op{Srv: d, Bytes: 0, BW: 100})                 // zero-length: behind the competitor
	ops.Add(Op{Bytes: 50, BW: 100})                        // DRAM copy: 0.5s
	ops.Add(Op{Srv: d, Bytes: 200, BW: 100, Trace: trace}) // 2s
	var done, competitor float64
	e.Spawn("ops", func(p *Proc) {
		if ops.Run(p) {
			done = p.Now()
		}
	})
	// Books at t=0.5, while the first op is in flight: runs 1..4.
	e.Spawn("competitor", requester(d, 0.5, 300, 100, 0, &competitor))
	e.Run()
	if competitor != 4 {
		t.Fatalf("competitor done at %v, want 4", competitor)
	}
	// Zero-length op waits out the competitor (t=4), copy to 4.5, last op
	// 4.5..6.5.
	if done != 6.5 {
		t.Fatalf("ops done at %v, want 6.5", done)
	}
	if trace.Len() != 2 || trace.Times[0] != 1 || trace.Times[1] != 6.5 {
		t.Fatalf("trace times %v, want [1 6.5]", trace.Times)
	}
	ops.Reset()
	if !ops.Run(nil) {
		t.Fatal("a reset list must complete at once")
	}
}

// TestWakeAtPastIsInline: a completion time not in the future schedules
// nothing, so the step carries on inline.
func TestWakeAtPastIsInline(t *testing.T) {
	e := New()
	steps := 0
	e.Spawn("p", func(p *Proc) {
		steps++
		if p.WakeAt(p.Now()) {
			t.Error("WakeAt(now) scheduled a wake-up")
		}
	})
	e.Run()
	if steps != 1 || e.Len() != 0 {
		t.Fatalf("steps = %d, pending = %d; want 1, 0", steps, e.Len())
	}
}

// TestRunTearsDownParkedProcs: a process waiting forever on a store does
// not keep Run from returning and is never resumed.
func TestRunTearsDownParkedProcs(t *testing.T) {
	e := New()
	s := NewStore[int](1)
	reached := false
	e.Spawn("stuck", func(p *Proc) {
		if _, ok := s.TryGet(p); ok { // never satisfied
			reached = true
		}
	})
	e.Spawn("other", sleepThen(1, func(*Proc) {}))
	e.Run() // must not hang
	if reached {
		t.Fatal("stuck proc should have been abandoned, not resumed")
	}
}

func TestDeterminism(t *testing.T) {
	run := func(seed int64) []float64 {
		e := New()
		rng := rand.New(rand.NewSource(seed))
		s := NewStore[float64](3)
		var out []float64
		for i := 0; i < 4; i++ {
			d := rng.Float64()
			k, slept := 0, false
			e.Spawn("p", func(p *Proc) {
				for k < 10 {
					if !slept {
						slept = true
						p.WakeAfter(d)
						return
					}
					if !s.TryPut(p, p.Now()) {
						return
					}
					slept = false
					k++
				}
			})
		}
		e.Spawn("c", func(p *Proc) {
			for len(out) < 40 {
				v, ok := s.TryGet(p)
				if !ok {
					return
				}
				out = append(out, v)
			}
		})
		e.Run()
		return out
	}
	a, b := run(42), run(42)
	if len(a) != len(b) || len(a) != 40 {
		t.Fatalf("lengths %d %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterminism at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// Property: for any set of sleep durations, the engine clock after Run equals
// the maximum duration, and every process ran to completion.
func TestSleepClockProperty(t *testing.T) {
	f := func(durs []uint16) bool {
		if len(durs) == 0 {
			return true
		}
		if len(durs) > 50 {
			durs = durs[:50]
		}
		e := New()
		max := 0.0
		count := 0
		for _, u := range durs {
			d := float64(u) / 100
			if d > max {
				max = d
			}
			e.Spawn("p", sleepThen(d, func(*Proc) { count++ }))
		}
		e.Run()
		return e.Now() == max && count == len(durs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: a bounded store never exceeds its capacity and preserves FIFO
// order for a single producer/consumer pair.
func TestStoreFIFOProperty(t *testing.T) {
	f := func(capacity uint8, n uint8) bool {
		c := int(capacity)%5 + 1
		items := int(n)%100 + 1
		e := New()
		s := NewStore[int](c)
		ok := true
		sent := 0
		e.Spawn("prod", func(p *Proc) {
			for sent < items && s.TryPut(p, sent) {
				sent++
				if s.Len() > c {
					ok = false
				}
			}
		})
		recvd, slept := 0, false
		e.Spawn("cons", func(p *Proc) {
			for recvd < items {
				if !slept {
					slept = true
					p.WakeAfter(0.01)
					return
				}
				v, good := s.TryGet(p)
				if !good {
					return
				}
				if v != recvd {
					ok = false
				}
				slept = false
				recvd++
			}
		})
		e.Run()
		return ok && recvd == items
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
