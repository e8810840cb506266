package sim

import (
	"testing"

	"datastall/internal/race"
)

// TestCallbackStoreFIFO: a consumer drains a sleeping producer through a
// bounded store in FIFO order.
func TestCallbackStoreFIFO(t *testing.T) {
	e := New()
	s := NewStore[int](2)
	sent, slept := 0, false
	e.Spawn("producer", func(p *Proc) {
		for sent < 5 {
			if !slept {
				slept = true
				p.WakeAfter(1)
				return
			}
			if !s.TryPut(p, sent) {
				return
			}
			slept = false
			sent++
		}
	})
	var got []int
	e.Spawn("consumer", func(p *Proc) {
		for {
			v, ok := s.TryGet(p)
			if !ok {
				return
			}
			got = append(got, v)
		}
	})
	e.Run()
	if len(got) != 5 {
		t.Fatalf("got %d values", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("out of order: %v", got)
		}
	}
}

// TestCallbackPutBackpressure: a producer waits on a full store until the
// consumer frees a slot.
func TestCallbackPutBackpressure(t *testing.T) {
	e := New()
	s := NewStore[int](1)
	var putDone float64
	sent := 0
	e.Spawn("producer", func(p *Proc) {
		for sent < 2 {
			if !s.TryPut(p, sent) {
				return
			}
			sent++
		}
		putDone = p.Now()
	})
	got := 0
	e.Spawn("consumer", sleepThen(10, func(p *Proc) {
		if _, ok := s.TryGet(p); ok {
			got++
		}
	}))
	e.Run()
	if putDone != 10 || got != 1 || s.Len() != 1 {
		t.Fatalf("putDone=%v got=%d buffered=%d, want 10/1/1", putDone, got, s.Len())
	}
}

// TestWakeAfterOrdering: WakeAfter respects (time, sequence) ordering
// against Schedule. Spawn order gives cb's first step seq 1 and g's seq 2;
// fn is scheduled with seq 3. At t=0 cb steps and schedules its t=2 wake
// (seq 4), then g (seq 5). So the t=2 order is fn, cb, g.
func TestWakeAfterOrdering(t *testing.T) {
	e := New()
	var order []string
	e.Spawn("cb", sleepThen(2, func(*Proc) { order = append(order, "cb") }))
	e.Spawn("g", sleepThen(2, func(*Proc) { order = append(order, "g") }))
	e.Schedule(2, func() { order = append(order, "fn") })
	e.Run()
	want := []string{"fn", "cb", "g"}
	if len(order) != 3 || order[0] != want[0] || order[1] != want[1] || order[2] != want[2] {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

// TestAllocsEventDispatch is the zero-allocation guard on the engine's
// event-dispatch hot path: steady-state scheduling, heap push/pop, store
// handoff and process resume must not allocate at all. Enforced in CI
// without race instrumentation; any regression fails here.
func TestAllocsEventDispatch(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates on otherwise allocation-free paths")
	}
	e := New()
	s := NewStore[int](1)
	budget := 0 // values the producer may still send
	prod := e.Spawn("prod", func(p *Proc) {
		if budget == 0 || !s.TryPut(p, 0) {
			return
		}
		budget--
		p.WakeAfter(1)
	})
	e.Spawn("cons", func(p *Proc) {
		for {
			if _, ok := s.TryGet(p); !ok {
				return
			}
		}
	})
	step := func() {
		budget = 100
		prod.wake()
		e.Run()
	}
	step() // warm the event queue and waiter lists to steady-state capacity
	if avg := testing.AllocsPerRun(50, step); avg != 0 {
		t.Fatalf("event dispatch allocates %v allocs per 100 simulated handoffs, want 0", avg)
	}
}
