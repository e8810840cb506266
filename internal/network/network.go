// Package network models the commodity Ethernet connecting training servers
// (40 Gbps in the paper's SKUs). Partitioned caching fetches remote-cached
// items over long-lived TCP connections (§4.2); the only property that
// matters is delivered bandwidth, which must exceed local-storage bandwidth
// for remote-DRAM fetches to pay off.
package network

import (
	"datastall/internal/sim"
)

// LinkSpec characterises a server NIC.
type LinkSpec struct {
	Name string
	// RawBW is the line rate in bytes/s.
	RawBW float64
	// Efficiency is the fraction of line rate TCP delivers for bulk
	// transfers (protocol overhead, stack costs).
	Efficiency float64
	// RTT is the per-transfer round-trip latency in seconds.
	RTT float64
}

// Ethernet40G is the paper's 40 Gbps cluster fabric.
var Ethernet40G = LinkSpec{
	Name:  "40GbE",
	RawBW: 40e9 / 8, Efficiency: 0.70,
	RTT: 100e-6,
}

// Ethernet10G is the low end of publicly available cloud GPU instances.
var Ethernet10G = LinkSpec{
	Name:  "10GbE",
	RawBW: 10e9 / 8, Efficiency: 0.70,
	RTT: 100e-6,
}

// NIC is one server's network interface: a FIFO bandwidth server so that
// concurrent remote fetches and gradient exchange contend realistically.
type NIC struct {
	Spec LinkSpec

	srv *sim.BandwidthServer
}

// NewNIC returns an idle NIC attached to e.
func NewNIC(e *sim.Engine, spec LinkSpec) *NIC {
	return &NIC{Spec: spec, srv: sim.NewBandwidthServer(e)}
}

// EffectiveBW returns the delivered bulk bandwidth in bytes/s.
func (n *NIC) EffectiveBW() float64 { return n.Spec.RawBW * n.Spec.Efficiency }

// Transfer appends to ops a move of bytes through this NIC. nMsgs is the
// number of request/response exchanges (each pays one RTT). An empty
// transfer appends nothing.
func (n *NIC) Transfer(ops *sim.Ops, bytes float64, nMsgs int) {
	if bytes <= 0 && nMsgs <= 0 {
		return
	}
	ops.Add(sim.Op{Srv: n.srv, Bytes: bytes, BW: n.EffectiveBW(),
		Overhead: float64(nMsgs) * n.Spec.RTT})
}

// TotalBytes returns bytes transferred through this NIC.
func (n *NIC) TotalBytes() float64 { return n.srv.Bytes }

// AccountBytes records background traffic (e.g. gradient exchange whose
// latency is already folded into iteration time) for bandwidth reporting
// without modelling queueing for it.
func (n *NIC) AccountBytes(bytes float64) { n.srv.Bytes += bytes }

// Fabric connects the NICs of a distributed job. A remote fetch crosses the
// serving server's NIC and the requesting server's NIC; we model the
// transfer as occupying both (store-and-forward at message granularity is
// irrelevant at these sizes, so the two requests are issued back to back).
type Fabric struct {
	NICs []*NIC
}

// NewFabric builds a fabric over n servers with the given link spec.
func NewFabric(e *sim.Engine, n int, spec LinkSpec) *Fabric {
	f := &Fabric{NICs: make([]*NIC, n)}
	for i := range f.NICs {
		f.NICs[i] = NewNIC(e, spec)
	}
	return f
}

// RemoteFetch appends to ops a transfer of bytes from server src's DRAM to
// server dst. Both endpoints' NICs are charged, one after the other.
func (f *Fabric) RemoteFetch(ops *sim.Ops, dst, src int, bytes float64, nItems int) {
	// Source side: serialization out of the serving server.
	f.NICs[src].Transfer(ops, bytes, nItems)
	// Destination side: receive path (usually overlapped; charge without
	// a second RTT to avoid double-counting latency).
	f.NICs[dst].Transfer(ops, bytes, 0)
}

// TotalBytes returns bytes moved across all NICs (each fetch counted twice,
// once per endpoint — the usual per-NIC accounting).
func (f *Fabric) TotalBytes() float64 {
	t := 0.0
	for _, n := range f.NICs {
		t += n.TotalBytes()
	}
	return t
}
