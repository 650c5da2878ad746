package defense

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/container"
	"repro/internal/kernel"
	"repro/internal/pseudofs"
	"repro/internal/workload"
)

// The fmt-based renderers stage 3 used before its handlers delegated host
// views to the displaced pseudofs handlers and appended container views in
// place. They are the oracle: the live handlers must match them byte for
// byte, for the host and for every container.

func oracleStat(k *kernel.Kernel, v pseudofs.View) string {
	ns := v.NS
	if ns == nil {
		ns = k.InitNS()
	}
	if ns.IsInit() {
		return oracleHostStat(k)
	}
	cg := k.Cgroup(v.CgroupPath)
	cores := float64(k.Options().Cores)
	if cg.QuotaCores > 0 && cg.QuotaCores < cores {
		cores = cg.QuotaCores
	}
	elapsed := k.Now() - ns.CreatedAt
	busyTicks := cg.CPUUsageNS / 1e9 * 100
	totalTicks := elapsed * cores * 100
	idleTicks := totalTicks - busyTicks
	if idleTicks < 0 {
		idleTicks = 0
	}
	var b strings.Builder
	fmt.Fprintf(&b, "cpu  %d 0 %d %d 0 0 0 0 0 0\n",
		int64(busyTicks*0.92), int64(busyTicks*0.08), int64(idleTicks))
	n := int(cores + 0.999)
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "cpu%d %d 0 %d %d 0 0 0 0 0 0\n", i,
			int64(busyTicks*0.92/float64(n)), int64(busyTicks*0.08/float64(n)),
			int64(idleTicks/float64(n)))
	}
	fmt.Fprintf(&b, "intr %d\n", int64(busyTicks*12))
	fmt.Fprintf(&b, "ctxt %d\n", int64(busyTicks*9))
	fmt.Fprintf(&b, "btime %d\n", k.Options().WallClockNow+int64(ns.CreatedAt))
	fmt.Fprintf(&b, "processes %d\n", len(k.TasksInNS(ns))+2)
	fmt.Fprintf(&b, "procs_running 1\nprocs_blocked 0\n")
	return b.String()
}

func oracleHostStat(k *kernel.Kernel) string {
	s := k.StatSnapshot()
	var b strings.Builder
	var tot [7]float64
	for _, c := range s.PerCPU {
		tot[0] += c.User
		tot[1] += c.Nice
		tot[2] += c.System
		tot[3] += c.Idle
		tot[4] += c.IOWait
		tot[5] += c.IRQ
		tot[6] += c.SoftIRQ
	}
	fmt.Fprintf(&b, "cpu  %d %d %d %d %d %d %d 0 0 0\n",
		int64(tot[0]), int64(tot[1]), int64(tot[2]), int64(tot[3]),
		int64(tot[4]), int64(tot[5]), int64(tot[6]))
	for i, c := range s.PerCPU {
		fmt.Fprintf(&b, "cpu%d %d %d %d %d %d %d %d 0 0 0\n", i,
			int64(c.User), int64(c.Nice), int64(c.System), int64(c.Idle),
			int64(c.IOWait), int64(c.IRQ), int64(c.SoftIRQ))
	}
	fmt.Fprintf(&b, "intr %d\nctxt %d\nbtime %d\nprocesses %d\nprocs_running %d\nprocs_blocked 0\n",
		s.IntrTotal, s.CtxtSwitches, s.BootTime, s.Processes, s.ProcsRunning)
	return b.String()
}

func oracleMeminfo(k *kernel.Kernel, v pseudofs.View) string {
	var b strings.Builder
	row := func(name string, kb uint64) {
		fmt.Fprintf(&b, "%-16s%8d kB\n", name+":", kb)
	}
	if v.IsHost() {
		mi := k.MeminfoSnapshot()
		row("MemTotal", mi.TotalKB)
		row("MemFree", mi.FreeKB)
		row("MemAvailable", mi.AvailableKB)
		row("Buffers", mi.BuffersKB)
		row("Cached", mi.CachedKB)
		row("Active", mi.ActiveKB)
		row("Inactive", mi.InactiveKB)
		row("SwapTotal", mi.SwapTotalKB)
		row("SwapFree", mi.SwapFreeKB)
		row("Dirty", mi.DirtyKB)
		return b.String()
	}
	cg := k.Cgroup(v.CgroupPath)
	limit := cg.MemLimitKB
	if limit == 0 {
		limit = DefaultMemLimitKB
	}
	used := k.CgroupRSSKB(v.CgroupPath)
	if used > limit {
		used = limit
	}
	free := limit - used
	row("MemTotal", limit)
	row("MemFree", free)
	row("MemAvailable", free)
	row("Buffers", 0)
	row("Cached", used/8)
	row("Active", used*6/10)
	row("Inactive", used*3/10)
	row("SwapTotal", 0)
	row("SwapFree", 0)
	row("Dirty", 0)
	return b.String()
}

func oracleLoadavg(k *kernel.Kernel, v pseudofs.View) string {
	if v.IsHost() {
		la := k.LoadAvgSnapshot()
		return fmt.Sprintf("%.2f %.2f %.2f %d/%d %d\n",
			la.Load1, la.Load5, la.Load15, la.Runnable, la.Total, la.LastPID)
	}
	demand := k.CgroupDemandCores(v.CgroupPath)
	tasks := k.TasksInNS(v.NS)
	running := 0
	maxPID := 1
	for _, t := range tasks {
		if t.DemandCores > 0 {
			running++
		}
		if t.NSPID > maxPID {
			maxPID = t.NSPID
		}
	}
	return fmt.Sprintf("%.2f %.2f %.2f %d/%d %d\n",
		demand, demand, demand, running, len(tasks), maxPID)
}

// TestStage3MatchesFmtOracle reads /proc/stat, /proc/meminfo and
// /proc/loadavg through the host view and three containers of a defended
// world (idle, busy under a CPU quota, memory-limited), at several ticks,
// and requires every render to equal the oracle byte for byte.
func TestStage3MatchesFmtOracle(t *testing.T) {
	k, fs, rt := localTestbed(t, 12)
	ApplyStatisticsFixes(fs)
	idle := rt.Create("idle")
	busy := rt.Create("busy")
	busy.Run(workload.Prime, 6)
	k.Cgroup(busy.CgroupPath).QuotaCores = 2.5
	mem := rt.Create("mem")
	mem.Run(workload.Prime, 1)
	k.Cgroup(mem.CgroupPath).MemLimitKB = 512 * 1024

	host := pseudofs.NewMount(fs, pseudofs.HostView(k), pseudofs.Policy{})
	mounts := map[string]*pseudofs.Mount{"host": host}
	for _, c := range []*container.Container{idle, busy, mem} {
		mounts[c.Name] = c.Mount()
	}
	oracles := map[string]func(*kernel.Kernel, pseudofs.View) string{
		"/proc/stat":    oracleStat,
		"/proc/meminfo": oracleMeminfo,
		"/proc/loadavg": oracleLoadavg,
	}
	for _, until := range []float64{0, 1, 7, 60, 600} {
		if until > k.Now() {
			k.Tick(until, 1)
		}
		for name, m := range mounts {
			for path, oracle := range oracles {
				got, err := m.Read(path)
				if err != nil {
					t.Fatalf("t=%g %s %s: %v", until, name, path, err)
				}
				if want := oracle(k, m.View()); got != want {
					t.Errorf("t=%g %s %s differs from the fmt oracle:\n got: %q\nwant: %q",
						until, name, path, got, want)
				}
			}
		}
	}
}
