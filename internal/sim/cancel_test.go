package sim

import (
	"context"
	"errors"
	"testing"
)

// TestRunContextUncancelledMatchesRun: with a background context the
// dispatch loop is Run, event for event.
func TestRunContextUncancelledMatchesRun(t *testing.T) {
	trace := func(drive func(e *Engine)) []float64 {
		e := New()
		var ts []float64
		for i := 0; i < 50; i++ {
			d := float64(i%7) * 0.5
			e.Schedule(d, func() { ts = append(ts, e.Now()) })
		}
		drive(e)
		return ts
	}
	a := trace(func(e *Engine) { e.Run() })
	b := trace(func(e *Engine) {
		if err := e.RunContext(context.Background(), 3); err != nil {
			t.Fatal(err)
		}
	})
	if len(a) != len(b) {
		t.Fatalf("event counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d at t=%g vs t=%g", i, a[i], b[i])
		}
	}
}

// TestRunContextCancelMidRun: cancellation stops the clock mid-simulation
// and drops every pending event, so no process steps again.
func TestRunContextCancelMidRun(t *testing.T) {
	e := New()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var sleeperSteps, tickerSteps int
	e.Spawn("sleeper", func(p *Proc) {
		if sleeperSteps++; sleeperSteps == 100 {
			cancel()
		}
		p.WakeAfter(1)
	})
	e.Spawn("ticker", func(p *Proc) {
		tickerSteps++
		p.WakeAfter(1)
	})
	// A proc waiting forever on a store with no producer.
	st := NewStore[int](1)
	e.Spawn("starved", func(p *Proc) { st.TryGet(p) })

	err := e.RunContext(ctx, 8)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if sleeperSteps < 100 || sleeperSteps > 110 {
		t.Fatalf("sleeper ran %d steps; cancellation not prompt", sleeperSteps)
	}
	if tickerSteps < 90 {
		t.Fatalf("ticker ran %d steps before cancel", tickerSteps)
	}
	// The engine is drained: no live events.
	if e.Len() != 0 {
		t.Fatalf("engine not drained: %d events", e.Len())
	}
	steps := sleeperSteps + tickerSteps
	e.Run()
	if sleeperSteps+tickerSteps != steps {
		t.Fatal("a process stepped after Cancel")
	}
}

// TestRunContextPreCancelled: an already-dead context never dispatches.
func TestRunContextPreCancelled(t *testing.T) {
	e := New()
	ran := false
	e.Schedule(0, func() { ran = true })
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := e.RunContext(ctx, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran {
		t.Fatal("event dispatched despite pre-cancelled context")
	}
}
