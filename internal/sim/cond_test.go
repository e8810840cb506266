package sim

import "testing"

// The WaitList is the engine's condition-wait primitive: a process that
// cannot proceed registers and returns from its step, and a Broadcast
// resumes it to re-check its condition.

func TestCondBroadcastWakesAll(t *testing.T) {
	e := New()
	var c WaitList
	woken := 0
	for i := 0; i < 3; i++ {
		waiting := false
		e.Spawn("w", func(p *Proc) {
			if !waiting {
				waiting = true
				c.Add(p)
				return
			}
			woken++
		})
	}
	e.Spawn("b", sleepThen(5, func(*Proc) {
		if c.Len() != 3 {
			t.Errorf("waiting = %d, want 3", c.Len())
		}
		c.Broadcast()
	}))
	e.Run()
	if woken != 3 {
		t.Fatalf("woken = %d, want 3", woken)
	}
	if c.Len() != 0 {
		t.Fatalf("waiters not cleared: %d", c.Len())
	}
}

func TestCondPredicateLoop(t *testing.T) {
	e := New()
	var c WaitList
	ready := false
	var seenAt float64
	e.Spawn("waiter", func(p *Proc) {
		if !ready {
			c.Add(p)
			return
		}
		seenAt = p.Now()
	})
	// Spurious broadcast at t=1 (predicate still false), real one at t=4.
	state := 0
	e.Spawn("sig", func(p *Proc) {
		switch state {
		case 0:
			state = 1
			p.WakeAfter(1)
		case 1:
			c.Broadcast()
			state = 2
			p.WakeAfter(3)
		case 2:
			ready = true
			c.Broadcast()
		}
	})
	e.Run()
	if seenAt != 4 {
		t.Fatalf("waiter proceeded at %v, want 4 (must re-check predicate)", seenAt)
	}
}

// TestCondWaiterKilledAtShutdown: a waiter that is never signalled does not
// keep Run from returning and is never resumed.
func TestCondWaiterKilledAtShutdown(t *testing.T) {
	e := New()
	var c WaitList
	steps := 0
	e.Spawn("stuck", func(p *Proc) {
		steps++
		c.Add(p) // never signalled
	})
	e.Run()
	if steps != 1 || c.Len() != 1 {
		t.Fatalf("stuck waiter stepped %d times with %d waiters; want 1, 1", steps, c.Len())
	}
}

// TestWaitListWakeOneFIFO: WakeOne resumes waiters in registration order,
// one per call.
func TestWaitListWakeOneFIFO(t *testing.T) {
	e := New()
	var c WaitList
	var order []string
	for _, name := range []string{"a", "b", "c"} {
		waiting := false
		e.Spawn(name, func(p *Proc) {
			if !waiting {
				waiting = true
				c.Add(p)
				return
			}
			order = append(order, name)
		})
	}
	e.Spawn("waker", sleepThen(1, func(*Proc) {
		c.WakeOne()
		c.WakeOne()
	}))
	e.Run()
	if len(order) != 2 || order[0] != "a" || order[1] != "b" || c.Len() != 1 {
		t.Fatalf("woken %v with %d left, want [a b] with 1", order, c.Len())
	}
	c.WakeOne()
	c.WakeOne() // empty list: no-op
	e.Run()
	if len(order) != 3 || order[2] != "c" {
		t.Fatalf("woken %v, want [a b c]", order)
	}
}
