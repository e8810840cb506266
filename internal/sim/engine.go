// Package sim implements a deterministic discrete-event simulator used to
// model the DNN input pipeline: processes, bounded stores, barriers, waiter
// lists and FIFO bandwidth servers.
//
// The engine is single-threaded in simulated time: exactly one process runs
// at any instant, and events that share a timestamp are ordered by their
// scheduling sequence number, so simulations are bit-reproducible.
//
// A process (Engine.Spawn) is a step function plus the state it keeps in
// its own struct. The engine calls the step inline at every resume; the
// step runs until the process must wait, then registers a wake-up and
// returns: a timed one (WakeAfter, WakeAt, Ops.Run) or a primitive's
// waiter list (Store.TryGet/TryPut, Barrier.Arrive, WaitList.Add). The
// engine is a plain value: no goroutines, no channels, and no per-step
// allocations on the hot paths.
package sim

import (
	"context"
	"fmt"
	"math"
)

// Event kinds. Typed events keep the hot resume path allocation-free: a
// resume stores the *Proc in the event itself instead of capturing it in a
// closure.
const (
	evFn byte = iota
	evResume
)

// event is a scheduled callback, stored by value in the engine's heap.
type event struct {
	t    float64
	seq  int64
	p    *Proc  // evResume: process to resume
	fn   func() // evFn: user callback
	kind byte
}

// eventQueue is a slice-backed 4-ary min-heap ordered by (t, seq). Values
// are stored inline (no *event boxing, no container/heap interface{}), and
// popped slots are reused by subsequent pushes, so steady-state push/pop
// performs zero allocations. A 4-ary layout halves the tree depth of a
// binary heap and keeps sibling comparisons within one cache line.
type eventQueue struct {
	ev []event
	n  int
}

func (q *eventQueue) less(i, j int) bool {
	if q.ev[i].t != q.ev[j].t {
		return q.ev[i].t < q.ev[j].t
	}
	return q.ev[i].seq < q.ev[j].seq
}

func (q *eventQueue) push(e event) {
	if q.n < len(q.ev) {
		q.ev[q.n] = e
	} else {
		q.ev = append(q.ev, e)
	}
	i := q.n
	q.n++
	for i > 0 {
		parent := (i - 1) >> 2
		if !q.less(i, parent) {
			break
		}
		q.ev[i], q.ev[parent] = q.ev[parent], q.ev[i]
		i = parent
	}
}

func (q *eventQueue) pop() event {
	top := q.ev[0]
	q.n--
	if q.n > 0 {
		q.ev[0] = q.ev[q.n]
	}
	q.ev[q.n] = event{} // drop fn/p references so the GC can collect them
	if q.n > 1 {
		q.siftDown()
	}
	return top
}

func (q *eventQueue) siftDown() {
	i := 0
	for {
		c := i<<2 + 1
		if c >= q.n {
			return
		}
		m := c
		hi := c + 4
		if hi > q.n {
			hi = q.n
		}
		for k := c + 1; k < hi; k++ {
			if q.less(k, m) {
				m = k
			}
		}
		if !q.less(m, i) {
			return
		}
		q.ev[i], q.ev[m] = q.ev[m], q.ev[i]
		i = m
	}
}

// Engine is a discrete-event simulation engine. Create one with New, spawn
// processes with Spawn, and drive the simulation with Run or RunContext.
type Engine struct {
	now float64
	seq int64
	q   eventQueue
}

// New returns an empty engine at time zero.
func New() *Engine { return &Engine{} }

// Now returns the current simulated time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Len returns the number of pending events.
func (e *Engine) Len() int { return e.q.n }

// Schedule runs fn after delay seconds of simulated time. fn executes
// inline in the event loop.
func (e *Engine) Schedule(delay float64, fn func()) {
	if delay < 0 || math.IsNaN(delay) {
		panic(fmt.Sprintf("sim: invalid delay %v", delay))
	}
	e.seq++
	e.q.push(event{t: e.now + delay, seq: e.seq, fn: fn, kind: evFn})
}

// scheduleResume schedules a resume of p after delay. It is the
// allocation-free internal path every wake-up goes through.
func (e *Engine) scheduleResume(p *Proc, delay float64) {
	e.seq++
	e.q.push(event{t: e.now + delay, seq: e.seq, p: p, kind: evResume})
}

// dispatch executes one popped event at the current time.
func (e *Engine) dispatch(ev event) {
	if ev.kind == evResume {
		ev.p.step(ev.p)
		return
	}
	ev.fn()
}

// Proc is a simulated process. All its methods must be called from its
// own step function.
type Proc struct {
	eng  *Engine
	step func(p *Proc)
	name string
}

// Name returns the process name given at spawn time.
func (p *Proc) Name() string { return p.name }

// Engine returns the engine this process belongs to.
func (p *Proc) Engine() *Engine { return p.eng }

// Now returns the current simulated time.
func (p *Proc) Now() float64 { return p.eng.now }

// Spawn registers step as a process and schedules its first step at the
// current time. step runs inline at every resume. To wait, it schedules its
// own wake-up (WakeAfter, WakeAt) or registers with a primitive (Store.TryGet,
// Store.TryPut, Barrier.Arrive, WaitList.Add) and returns; the engine calls
// step again when the process is resumed.
func (e *Engine) Spawn(name string, step func(p *Proc)) *Proc {
	p := &Proc{eng: e, name: name, step: step}
	e.scheduleResume(p, 0)
	return p
}

// wake resumes p at the current time; primitives call it to release a
// waiter.
func (p *Proc) wake() { p.eng.scheduleResume(p, 0) }

// WakeAfter schedules the process's next step after d seconds of simulated
// time. The step function must return right after calling it.
func (p *Proc) WakeAfter(d float64) {
	if d < 0 || math.IsNaN(d) {
		panic(fmt.Sprintf("sim: invalid wake delay %v", d))
	}
	p.eng.scheduleResume(p, d)
}

// WakeAt schedules the process's next step at simulated time t and reports
// true, or reports false without scheduling anything when t is not in the
// future, in which case the step carries on inline. It is how a process
// waits for a FIFO device completion (BandwidthServer.Request).
func (p *Proc) WakeAt(t float64) bool {
	if t <= p.eng.now {
		return false
	}
	p.eng.scheduleResume(p, t-p.eng.now)
	return true
}

// Run executes events until the event queue drains. Processes still
// registered on a waiter list simply never step again.
func (e *Engine) Run() {
	for e.q.n > 0 {
		ev := e.q.pop()
		e.now = ev.t
		e.dispatch(ev)
	}
}

// DefaultCancelPoll is how many events RunContext dispatches between
// cancellation checks when the caller passes pollEvery <= 0. Event dispatch
// is tens of nanoseconds, so even a large poll interval keeps cancellation
// latency far below a millisecond.
const DefaultCancelPoll = 1024

// RunContext is Run with cooperative cancellation: it polls ctx.Err() every
// pollEvery events (DefaultCancelPoll when <= 0) and, once the context is
// cancelled, drops the remaining event queue (Cancel) and returns
// ctx.Err(). A nil error means the simulation ran to completion exactly as
// Run would have: the poll does not perturb event order, so results are
// bit-identical to Run for an uncancelled context.
func (e *Engine) RunContext(ctx context.Context, pollEvery int) error {
	if pollEvery <= 0 {
		pollEvery = DefaultCancelPoll
	}
	if err := ctx.Err(); err != nil {
		e.Cancel()
		return err
	}
	n := 0
	for e.q.n > 0 {
		ev := e.q.pop()
		e.now = ev.t
		e.dispatch(ev)
		if n++; n >= pollEvery {
			n = 0
			if err := ctx.Err(); err != nil {
				e.Cancel()
				return err
			}
		}
	}
	// A cancellation that landed inside the last poll window (short
	// simulations may never reach a poll at all) still aborts: the caller
	// asked to stop, so don't hand back a completed run.
	if err := ctx.Err(); err != nil {
		e.Cancel()
		return err
	}
	return nil
}

// Cancel aborts the simulation mid-run by dropping every pending event
// unexecuted: no process steps again. It costs time proportional to the
// queue length, not to the simulated work left. The clock stays at the
// cancellation instant.
func (e *Engine) Cancel() {
	clear(e.q.ev[:e.q.n])
	e.q.n = 0
}
