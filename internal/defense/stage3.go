package defense

import (
	"fmt"

	"repro/internal/pseudofs"
)

// Stage 3 implements what the paper's discussion proposes as future work:
// "It would be better to make system-wide performance statistics
// unavailable to container tenants" (Section VII-A). Instead of masking the
// files — which breaks monitoring agents, JVMs, and sysconf — the handlers
// are replaced with per-cgroup views: the same interfaces, now answering
// from the container's own accounting.
//
// After stage 3, the utilization-proxy attack (attack.RunSynergisticUtil)
// and the utilization covert channel go blind, leaving temperature as the
// only surviving side signal — the resource the paper concedes is genuinely
// hard to partition.

// DefaultMemLimitKB is assumed for containers without an explicit cgroup
// memory limit when rendering the namespaced meminfo (4 GiB).
const DefaultMemLimitKB = 4 * 1024 * 1024

// ApplyStatisticsFixes replaces the host-global performance-statistics
// handlers with per-cgroup implementations. Init-namespace views still go
// to the handler each fix displaced, so the host's own reads are
// untouched.
func ApplyStatisticsFixes(fs *pseudofs.FS) {
	k := fs.Kernel()

	// fix answers container views of path with render and hands host
	// views to the handler it displaces.
	fix := func(path string, render func(dst []byte, v pseudofs.View) []byte) {
		var host pseudofs.Handler
		host = fs.Replace(path, func(dst []byte, v pseudofs.View) ([]byte, error) {
			if v.IsHost() {
				return host(dst, v)
			}
			return render(dst, v), nil
		})
	}

	// /proc/stat: per-cgroup CPU accounting. The container sees exactly
	// its quota's worth of CPUs, its own cpuacct-derived busy time, and a
	// btime matching its own (namespaced) boot.
	fix("/proc/stat", func(dst []byte, v pseudofs.View) []byte {
		cg := k.Cgroup(v.CgroupPath)
		cores := float64(k.Options().Cores)
		if cg.QuotaCores > 0 && cg.QuotaCores < cores {
			cores = cg.QuotaCores
		}
		elapsed := k.Now() - v.NS.CreatedAt
		busyTicks := cg.CPUUsageNS / 1e9 * 100
		totalTicks := elapsed * cores * 100
		idleTicks := totalTicks - busyTicks
		if idleTicks < 0 {
			idleTicks = 0
		}
		dst = fmt.Appendf(dst, "cpu  %d 0 %d %d 0 0 0 0 0 0\n",
			int64(busyTicks*0.92), int64(busyTicks*0.08), int64(idleTicks))
		n := int(cores + 0.999)
		for i := 0; i < n; i++ {
			dst = fmt.Appendf(dst, "cpu%d %d 0 %d %d 0 0 0 0 0 0\n", i,
				int64(busyTicks*0.92/float64(n)), int64(busyTicks*0.08/float64(n)),
				int64(idleTicks/float64(n)))
		}
		dst = fmt.Appendf(dst, "intr %d\n", int64(busyTicks*12))
		dst = fmt.Appendf(dst, "ctxt %d\n", int64(busyTicks*9))
		dst = fmt.Appendf(dst, "btime %d\n", k.Options().WallClockNow+int64(v.NS.CreatedAt))
		dst = fmt.Appendf(dst, "processes %d\n", len(k.TasksInNS(v.NS))+2)
		return append(dst, "procs_running 1\nprocs_blocked 0\n"...)
	})

	// /proc/meminfo: the cgroup limit is the container's world.
	fix("/proc/meminfo", func(dst []byte, v pseudofs.View) []byte {
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
		row := func(name string, kb uint64) {
			dst = fmt.Appendf(dst, "%-16s%8d kB\n", name+":", kb)
		}
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
		return dst
	})

	// /proc/loadavg: the container's own run queue.
	fix("/proc/loadavg", func(dst []byte, v pseudofs.View) []byte {
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
		return fmt.Appendf(dst, "%.2f %.2f %.2f %d/%d %d\n",
			demand, demand, demand, running, len(tasks), maxPID)
	})
}
