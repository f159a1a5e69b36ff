package registry

import (
	"testing"

	"repro/internal/mctopalg"
)

// BenchmarkColdInfer is the price of one uncached inference — what every
// caller paid before the registry existed.
func BenchmarkColdInfer(b *testing.B) {
	opt := mctopalg.Options{Reps: 51}
	for i := 0; i < b.N; i++ {
		if _, err := Infer(bg, "Ivy", 42, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTopologyHit is a warm registry lookup; compare against
// BenchmarkColdInfer for the memoization win (>= 100x by acceptance, ~10^5x
// in practice).
func BenchmarkTopologyHit(b *testing.B) {
	r := New(Options{})
	opt := mctopalg.Options{Reps: 51}
	if _, _, err := r.LookupTopologyContext(bg, "Ivy", 42, opt); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := r.LookupTopologyContext(bg, "Ivy", 42, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTopologyHitParallel hammers one cached key from all procs — the
// hot path of a serving daemon.
func BenchmarkTopologyHitParallel(b *testing.B) {
	r := New(Options{})
	opt := mctopalg.Options{Reps: 51}
	if _, _, err := r.LookupTopologyContext(bg, "Ivy", 42, opt); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, _, err := r.LookupTopologyContext(bg, "Ivy", 42, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPlaceHit is a warm placement lookup.
func BenchmarkPlaceHit(b *testing.B) {
	r := New(Options{})
	opt := mctopalg.Options{Reps: 51}
	if _, err := r.PlaceContext(bg, "Ivy", 42, opt, "CON_HWC", 30); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.PlaceContext(bg, "Ivy", 42, opt, "CON_HWC", 30); err != nil {
			b.Fatal(err)
		}
	}
}
