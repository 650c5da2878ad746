package core

import (
	"testing"

	"repro/internal/container"
	"repro/internal/kernel"
	"repro/internal/pseudofs"
)

// BenchmarkRollUp measures the Table I roll-up of one container's findings
// on a 24-core host: every finding tested against every channel's
// patterns. The cross-validation that produces the findings runs once,
// outside the timer.
func BenchmarkRollUp(b *testing.B) {
	k := kernel.New(kernel.Options{Hostname: "bench-host", Seed: 1, Cores: 24})
	fs := pseudofs.Build(k, pseudofs.DefaultHardware())
	r := container.NewRuntime(k, fs, container.DockerProfile())
	c := r.Create("probe")
	k.Tick(10, 10)
	findings := CrossValidate(pseudofs.NewMount(fs, pseudofs.HostView(k), pseudofs.Policy{}), c.Mount())
	channels := TableIChannels()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RollUp(channels, findings)
	}
}
