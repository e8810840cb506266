package sim

import "testing"

// Event-dispatch benchmarks: one op is a full 4-pair x 256-round ping-pong
// workload (~2 events per handoff). The callback benchmark is the fast path
// the trainer's GPU consumers run on.
//
//	go test -bench EventDispatch -benchmem ./internal/sim

const (
	benchPairs  = 4
	benchRounds = 256
)

func BenchmarkEventDispatchGoroutine(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		BenchPingPong(benchPairs, benchRounds, false)
	}
}

func BenchmarkEventDispatchCallback(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		BenchPingPong(benchPairs, benchRounds, true)
	}
}

// BenchPingPong drives pairs independent producer/consumer pairs, each
// exchanging rounds values through a capacity-1 store, on the current
// engine — the event-dispatch hot loop in isolation (every handoff is one
// wakeup event). callback selects the Spawn fast path (state-machine
// processes on the engine goroutine); otherwise goroutine processes.
func BenchPingPong(pairs, rounds int, callback bool) {
	e := New()
	for i := 0; i < pairs; i++ {
		s := NewStore[int](e, 1)
		if callback {
			spawnBenchPair(e, s, rounds)
			continue
		}
		e.Go("prod", func(p *Proc) {
			for k := 0; k < rounds; k++ {
				s.Put(p, k)
			}
		})
		e.Go("cons", func(p *Proc) {
			for k := 0; k < rounds; k++ {
				s.Get(p)
			}
		})
	}
	e.Run()
}

// spawnBenchPair registers one producer/consumer pair as callback
// processes: each step drains as far as the store allows, registers as a
// waiter when it can't, and is re-stepped by the store's wakeup.
func spawnBenchPair(e *Engine, s *Store[int], rounds int) {
	sent, recvd := 0, 0
	e.Spawn("prod", func(p *Proc) {
		for sent < rounds {
			if !s.TryPut(p, sent, p.Now()) {
				return
			}
			sent++
		}
	})
	e.Spawn("cons", func(p *Proc) {
		for recvd < rounds {
			if _, _, ready := s.TryGet(p, p.Now()); !ready {
				return
			}
			recvd++
		}
	})
}
