package coherence_test

import (
	"testing"

	"offloadsim/internal/coherence"
	"offloadsim/internal/enginebench"
)

// BenchmarkDirectoryMiss covers the miss-service path: L2 miss ->
// directory transaction -> memory fill, including directory entry
// creation and retirement as lines enter and leave the caches.
func BenchmarkDirectoryMiss(b *testing.B) { enginebench.DirectoryMiss(b) }

// BenchmarkDirectoryLookup covers the steady-state directory
// transaction: ownership ping-pong over a fixed line set, no entry
// churn. Must report 0 allocs/op.
func BenchmarkDirectoryLookup(b *testing.B) { enginebench.DirectoryLookup(b) }

// BenchmarkCheckInvariants pins the allocation behaviour of the
// invariant checker: the per-line presence gathering must reuse the
// system's scratch storage instead of rebuilding a map per call.
func BenchmarkCheckInvariants(b *testing.B) {
	sys := coherence.MustNew(coherence.DefaultConfig())
	for la := uint64(0); la < 4096; la++ {
		sys.Read(int(la)&1, la)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sys.CheckInvariants(); err != nil {
			b.Fatal(err)
		}
	}
}
