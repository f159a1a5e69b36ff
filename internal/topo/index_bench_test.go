package topo

// BenchmarkQueryIndex_* measure the precomputed query index, and the
// *Preindex variants the pre-index map and sort implementations it replaced
// (kept as the references). The headline numbers are GetLatency and
// MaxLatencyBetween at 64 contexts on the 8-socket Westmere (the paper's
// largest x86 machine).

import (
	"path/filepath"
	"testing"
)

func benchGolden(b *testing.B, file string) *Topology {
	b.Helper()
	top, err := LoadFile(filepath.Join("testdata", file))
	if err != nil {
		b.Fatal(err)
	}
	return top
}

// benchPairs pre-generates a 50/50 mix of intra-socket and cross-socket
// pairs, so the timed loop is lookups, not index arithmetic.
func benchPairs(top *Topology) [][2]int {
	n := top.NumHWContexts()
	perSocket := n / top.NumSockets()
	pairs := make([][2]int, 1024)
	for i := range pairs {
		if i%2 == 0 {
			base := ((i * 13) % n) / perSocket * perSocket
			pairs[i] = [2]int{base + i%perSocket, base + (i*7+1)%perSocket}
		} else {
			pairs[i] = [2]int{(i * 13) % n, (i*29 + 7) % n}
		}
	}
	return pairs
}

func BenchmarkQueryIndex_GetLatency(b *testing.B) {
	top := benchGolden(b, "sparc.mctop")
	pairs := benchPairs(top)
	top.GetLatency(0, 1) // build the index outside the timed loop
	b.ResetTimer()
	var sink int64
	for i := 0; i < b.N; i++ {
		p := pairs[i&1023]
		sink += top.GetLatency(p[0], p[1])
	}
	_ = sink
}

// benchCtxs64 is the 64-participant set of the MaxLatencyBetween headline:
// every 2nd context of the 160-context Westmere, spanning all 8 sockets.
func benchCtxs64(top *Topology) []int {
	ctxs := make([]int, 64)
	for i := range ctxs {
		ctxs[i] = (i * 2) % top.NumHWContexts()
	}
	return ctxs
}

func BenchmarkQueryIndex_MaxLatencyBetween64(b *testing.B) {
	top := benchGolden(b, "westmere.mctop")
	ctxs := benchCtxs64(top)
	top.GetLatency(0, 1)
	b.ResetTimer()
	var sink int64
	for i := 0; i < b.N; i++ {
		sink += top.MaxLatencyBetween(ctxs)
	}
	_ = sink
}

func BenchmarkQueryIndex_PowerEstimate(b *testing.B) {
	top := benchGolden(b, "haswell.mctop")
	ctxs := benchCtxs64(top)
	top.GetLatency(0, 1)
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		_, t := top.PowerEstimate(ctxs, false)
		sink += t
	}
	_ = sink
}

func BenchmarkQueryIndex_PowerEstimatePreindex(b *testing.B) {
	top := benchGolden(b, "haswell.mctop")
	ctxs := benchCtxs64(top)
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		_, t := top.powerEstimateMap(ctxs, false)
		sink += t
	}
	_ = sink
}

func BenchmarkQueryIndex_SocketOrders(b *testing.B) {
	top := benchGolden(b, "opteron.mctop")
	top.GetLatency(0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		top.SocketsByLocalBW()
		top.SocketsByLatencyFrom(i % top.NumSockets())
	}
}

func BenchmarkQueryIndex_SocketOrdersPreindex(b *testing.B) {
	top := benchGolden(b, "opteron.mctop")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		top.socketsByLocalBWSort()
		top.socketsByLatencyFromSort(i % top.NumSockets())
	}
}
