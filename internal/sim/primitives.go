package sim

import "datastall/internal/stats"

// WaitList is a list of processes waiting for a condition. A process that
// cannot proceed Adds itself and returns from its step; WakeOne resumes the
// longest waiter and Broadcast resumes every waiter, in registration order,
// at the current time. A resumed process re-checks its condition and Adds
// itself again if it still cannot proceed. The zero value is an empty list.
type WaitList struct {
	procs []*Proc
}

// Add registers p as a waiter.
func (w *WaitList) Add(p *Proc) { w.procs = append(w.procs, p) }

// Len returns the number of waiters.
func (w *WaitList) Len() int { return len(w.procs) }

// WakeOne resumes the longest-waiting process, if any. The waiters shift
// down in place, so the backing array is reused forever.
func (w *WaitList) WakeOne() {
	if len(w.procs) == 0 {
		return
	}
	p := w.procs[0]
	n := copy(w.procs, w.procs[1:])
	w.procs[n] = nil
	w.procs = w.procs[:n]
	p.wake()
}

// Broadcast resumes every waiter in registration order and empties the list.
func (w *WaitList) Broadcast() {
	for i, p := range w.procs {
		p.wake()
		w.procs[i] = nil
	}
	w.procs = w.procs[:0]
}

// Store is a bounded FIFO queue of values exchanged between processes.
// A capacity of 0 means unbounded. TryPut and TryGet either complete inline
// or register the caller as a waiter; the store resumes a waiting putter
// when space frees and a waiting getter when a value arrives.
type Store[T any] struct {
	cap     int
	buf     []T
	getters WaitList
	putters WaitList
}

// NewStore returns a store with the given capacity (0 = unbounded).
func NewStore[T any](capacity int) *Store[T] {
	return &Store[T]{cap: capacity}
}

// Len returns the number of buffered values.
func (s *Store[T]) Len() int { return len(s.buf) }

// TryPut appends v and reports true, or, while the store is full,
// registers p as a waiting putter and reports false; p's step must then
// return and call TryPut again when resumed.
func (s *Store[T]) TryPut(p *Proc, v T) bool {
	if s.cap > 0 && len(s.buf) >= s.cap {
		s.putters.Add(p)
		return false
	}
	s.buf = append(s.buf, v)
	s.getters.WakeOne()
	return true
}

// TryGet removes and returns the oldest value, or, while the store is
// empty, registers p as a waiting getter and reports false; p's step must
// then return and call TryGet again when resumed.
func (s *Store[T]) TryGet(p *Proc) (v T, ok bool) {
	if len(s.buf) == 0 {
		s.getters.Add(p)
		return v, false
	}
	v = s.buf[0]
	n := copy(s.buf, s.buf[1:])
	var zero T
	s.buf[n] = zero
	s.buf = s.buf[:n]
	s.putters.WakeOne()
	return v, true
}

// Barrier synchronises n processes: each generation releases once all n
// have arrived. It is reusable across generations.
type Barrier struct {
	n       int
	arrived int
	waiters WaitList
}

// NewBarrier returns a barrier for n parties.
func NewBarrier(n int) *Barrier {
	if n < 1 {
		panic("sim: barrier needs n >= 1")
	}
	return &Barrier{n: n}
}

// Arrive records p's arrival. If p completes the generation, every earlier
// arriver is resumed and Arrive reports true: p proceeds inline. Otherwise
// p is registered as a waiter and Arrive reports false; p's step must
// return, and the barrier resumes it when the generation completes.
func (b *Barrier) Arrive(p *Proc) bool {
	b.arrived++
	if b.arrived >= b.n {
		b.arrived = 0
		b.waiters.Broadcast()
		return true
	}
	b.waiters.Add(p)
	return false
}

// BandwidthServer models a FIFO device (disk, NIC) characterised by a
// bandwidth and a fixed per-request overhead. Requests are serviced strictly
// in arrival order: a request arriving while the device is busy queues behind
// the in-flight work, which is how cross-job contention arises.
type BandwidthServer struct {
	eng       *Engine
	busyUntil float64

	// Stats.
	Bytes    float64 // total bytes transferred
	Requests int64   // number of requests
	Waited   float64 // total queueing delay
}

// NewBandwidthServer returns an idle device.
func NewBandwidthServer(e *Engine) *BandwidthServer {
	return &BandwidthServer{eng: e}
}

// Request books a transfer of bytes at bwBytesPerSec with a fixed overhead
// (e.g. seek time) behind the device's queued work and returns its
// completion time. The caller waits for it with Proc.WakeAt.
func (d *BandwidthServer) Request(bytes, bwBytesPerSec, overhead float64) float64 {
	if bytes < 0 {
		panic("sim: negative transfer")
	}
	dur := overhead
	if bytes > 0 {
		dur += bytes / bwBytesPerSec
	}
	start := d.eng.now
	if d.busyUntil < start {
		d.busyUntil = start
	}
	d.Waited += d.busyUntil - start
	d.busyUntil += dur
	d.Bytes += bytes
	d.Requests++
	return d.busyUntil
}

// Op is one device operation of a process: a FIFO transfer of Bytes at BW
// bytes/s plus a fixed Overhead on the bandwidth server Srv or, with a nil
// Srv, an uncontended copy of Bytes at BW (a DRAM read).
type Op struct {
	Srv      *BandwidthServer
	Bytes    float64
	BW       float64
	Overhead float64
	// Trace, when non-nil, receives a (completion time, Bytes) sample.
	Trace *stats.TimeSeries
}

// Ops is a reusable list of device operations one process runs back to
// back: each op is booked when the previous one completes, so it queues on
// its device exactly as a sequential caller's request would. The list keeps
// its capacity across Reset, so steady-state use does not allocate.
type Ops struct {
	list   []Op
	next   int  // first op not yet completed
	booked bool // list[next] is booked and its completion pending
}

// Add appends op to the list.
func (o *Ops) Add(op Op) { o.list = append(o.list, op) }

// Reset empties the list for reuse.
func (o *Ops) Reset() {
	o.list = o.list[:0]
	o.next = 0
	o.booked = false
}

// Run books the pending ops in order. It reports false when p must wait
// for an op — p's wake-up is scheduled, so its step must return and call
// Run again when resumed — and true once every op has completed. Ops added
// after a completed Run are run by the next call.
func (o *Ops) Run(p *Proc) bool {
	for o.next < len(o.list) {
		op := &o.list[o.next]
		if !o.booked {
			o.booked = true
			if op.Srv == nil {
				p.WakeAfter(op.Bytes / op.BW)
				return false
			}
			if p.WakeAt(op.Srv.Request(op.Bytes, op.BW, op.Overhead)) {
				return false
			}
		}
		o.booked = false
		if op.Trace != nil {
			op.Trace.Add(p.Now(), op.Bytes)
		}
		o.next++
	}
	return true
}
