package pseudofs

import (
	"testing"

	"repro/internal/kernel"
)

// BenchmarkFSBuild measures Build over a 24-core kernel, the tree every
// inspect world builds: registering every handler, then sealing it
// (sorting the paths and tagging each against the dependency table).
func BenchmarkFSBuild(b *testing.B) {
	k := kernel.New(kernel.Options{Hostname: "bench-host", Seed: 1, Cores: 24})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build(k, DefaultHardware())
	}
}
