package kernel

import "testing"

// newLoadedKernel returns a 24-core server (the Fig. 3 server size) with
// three busy containers, one carrying a perf group, warmed past its first
// ticks.
func newLoadedKernel() *Kernel {
	k := New(Options{Hostname: "bench", Cores: 24, Seed: 3})
	d, r := busyTask()
	k.Perf().CreateGroup("/docker/c0")
	for i, cg := range []string{"/docker/c0", "/docker/c1", "/docker/c2"} {
		k.Spawn("w", k.InitNS(), cg, float64(2+i)*d, r.Times(float64(2+i)))
	}
	tick(k, 10)
	return k
}

// TestTickAllocatesNothing checks that a warm kernel ticks without
// allocating: the tick's scratch (row scales, the newidle walk's draws,
// the system-lock window) lives in fixed backing arrays. AllocsPerRun
// rounds down to whole allocations per run, so each run is 100 one-second
// ticks, in which about 20 system locks are taken and the window slides.
func TestTickAllocatesNothing(t *testing.T) {
	k := newLoadedKernel()
	if a := testing.AllocsPerRun(20, func() { tick(k, 100) }); a != 0 {
		t.Fatalf("100 ticks allocate %v times, want 0", a)
	}
}

// TestSysLockWindow checks the daemon-lock churn keeps the newest
// maxSysLocks locks, oldest first, with consecutive IDs, across a restore.
func TestSysLockWindow(t *testing.T) {
	k := newLoadedKernel()
	s := k.Snapshot()
	check := func() []FileLock {
		locks := k.SystemLocks()
		if len(locks) != maxSysLocks {
			t.Fatalf("%d system locks, want %d", len(locks), maxSysLocks)
		}
		for i := 1; i < len(locks); i++ {
			if locks[i].ID != locks[i-1].ID-1 {
				t.Fatalf("system lock IDs %d then %d, want consecutive", locks[i-1].ID, locks[i].ID)
			}
		}
		if want := -int(k.sysLockSeq); locks[len(locks)-1].ID != want {
			t.Fatalf("newest system lock ID %d, want %d", locks[len(locks)-1].ID, want)
		}
		return locks
	}
	tick(k, 200)
	first := check()
	k.Restore(s)
	tick(k, 200)
	again := check()
	for i := range first {
		if first[i] != again[i] {
			t.Fatalf("lock %d after restore = %+v, want %+v", i, again[i], first[i])
		}
	}
}

// BenchmarkKernelTick times one tick of a loaded 24-core server: the
// layer under simclock's shard phase.
func BenchmarkKernelTick(b *testing.B) {
	k := newLoadedKernel()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Tick(k.Now()+0.02, 0.02)
	}
}
