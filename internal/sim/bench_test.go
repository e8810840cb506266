package sim

import "testing"

// Event-dispatch benchmark: one op is a full 4-pair x 256-round ping-pong
// workload (~2 events per handoff), the path every trainer process runs on.
//
//	go test -bench EventDispatch -benchmem ./internal/sim

const (
	benchPairs  = 4
	benchRounds = 256
)

func BenchmarkEventDispatchCallback(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		BenchPingPong(benchPairs, benchRounds)
	}
}

// BenchPingPong drives pairs independent producer/consumer pairs, each
// exchanging rounds values through a capacity-1 store — the event-dispatch
// hot loop in isolation (every handoff is one wakeup event). Each step
// drains as far as the store allows and registers as a waiter when it
// can't.
func BenchPingPong(pairs, rounds int) {
	e := New()
	for i := 0; i < pairs; i++ {
		s := NewStore[int](1)
		sent, recvd := 0, 0
		e.Spawn("prod", func(p *Proc) {
			for sent < rounds && s.TryPut(p, sent) {
				sent++
			}
		})
		e.Spawn("cons", func(p *Proc) {
			for recvd < rounds {
				if _, ok := s.TryGet(p); !ok {
					return
				}
				recvd++
			}
		})
	}
	e.Run()
}
