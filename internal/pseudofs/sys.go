package pseudofs

import (
	"fmt"

	"repro/internal/power"
)

// buildSys wires the /sys tree: cgroup controller files, NUMA node stats,
// cpuidle residency, the coretemp hwmon sensors, and the Intel RAPL powercap
// interface of Case Study II.
//
// The RAPL energy_uj and cpuacct handlers are the hottest reads in the
// repo — the attacker monitor samples them thousands of times per campaign
// — so they render through strconv.Append* with zero allocations.
func (fs *FS) buildSys(hw Hardware) {
	k := fs.k

	// /sys/fs/cgroup/net_prio/net_prio.ifpriomap — Case Study I. The
	// handler renders the reader's own cgroup priority map, but iterates
	// init_net's device list (for_each_netdev_rcu(&init_net, …)), so a
	// container sees every physical interface of the host.
	// (LookupCgroup, not Cgroup: read handlers must never create table
	// entries — parallel cross-validation reads these concurrently.)
	fs.add("/sys/fs/cgroup/net_prio/net_prio.ifpriomap", func(b []byte, v View) ([]byte, error) {
		cg, _ := k.LookupCgroup(v.CgroupPath)
		for _, dev := range k.HostNetDevices() { // BUG preserved: host list
			prio := 0
			if cg != nil && cg.IfPrioMap != nil {
				prio = cg.IfPrioMap[dev.Name]
			}
			b = append(b, dev.Name...)
			b = append(b, ' ')
			b = apInt(b, int64(prio))
			b = append(b, '\n')
		}
		return b, nil
	})

	// cpuacct usage for the reader's cgroup — properly delegated.
	fs.add("/sys/fs/cgroup/cpuacct/cpuacct.usage", func(b []byte, v View) ([]byte, error) {
		var usage int64
		if cg, ok := k.LookupCgroup(v.CgroupPath); ok {
			usage = int64(cg.CPUUsageNS)
		}
		b = apInt(b, usage)
		return append(b, '\n'), nil
	})

	// /sys/devices/system/node/node0/{numastat,vmstat,meminfo}: NUMA node
	// counters are host-global.
	fs.add("/sys/devices/system/node/node0/numastat", func(b []byte, _ View) ([]byte, error) {
		n := k.NUMASnapshot()
		b = append(b, "numa_hit "...)
		b = apInt(b, int64(n.Hit))
		b = append(b, "\nnuma_miss "...)
		b = apInt(b, int64(n.Miss))
		b = append(b, "\nnuma_foreign "...)
		b = apInt(b, int64(n.Foreign))
		b = append(b, "\ninterleave_hit "...)
		b = apInt(b, int64(n.InterleaveHit))
		b = append(b, "\nlocal_node "...)
		b = apInt(b, int64(n.LocalNode))
		b = append(b, "\nother_node "...)
		b = apInt(b, int64(n.OtherNode))
		return append(b, '\n'), nil
	})
	fs.add("/sys/devices/system/node/node0/vmstat", func(b []byte, _ View) ([]byte, error) {
		mi := k.MeminfoSnapshot()
		n := k.NUMASnapshot()
		b = append(b, "nr_free_pages "...)
		b = apUint(b, mi.FreeKB/4)
		b = append(b, "\nnr_alloc_batch 63\nnr_inactive_anon "...)
		b = apUint(b, mi.InactiveKB/4)
		b = append(b, "\nnr_active_anon "...)
		b = apUint(b, mi.ActiveKB/4)
		b = append(b, "\nnuma_hit "...)
		b = apInt(b, int64(n.Hit))
		b = append(b, "\nnuma_local "...)
		b = apInt(b, int64(n.LocalNode))
		return append(b, '\n'), nil
	})
	fs.add("/sys/devices/system/node/node0/meminfo", func(b []byte, _ View) ([]byte, error) {
		mi := k.MeminfoSnapshot()
		b = append(b, "Node 0 MemTotal:       "...)
		b = apUint(b, mi.TotalKB)
		b = append(b, " kB\nNode 0 MemFree:        "...)
		b = apUint(b, mi.FreeKB)
		b = append(b, " kB\nNode 0 MemUsed:        "...)
		b = apUint(b, mi.TotalKB-mi.FreeKB)
		b = append(b, " kB\nNode 0 Active:         "...)
		b = apUint(b, mi.ActiveKB)
		b = append(b, " kB\nNode 0 Inactive:       "...)
		b = apUint(b, mi.InactiveKB)
		return append(b, " kB\n"...), nil
	})

	// /sys/devices/system/cpu/cpu#/cpuidle/state#/{name,usage,time}.
	states := k.IdleStateSnapshot()
	for cpu := 0; cpu < k.Options().Cores; cpu++ {
		for si := range states {
			cpu, si := cpu, si
			base := fmt.Sprintf("/sys/devices/system/cpu/cpu%d/cpuidle/state%d", cpu, si)
			fs.static(base+"/name", states[si].Name+"\n")
			fs.add(base+"/usage", func(b []byte, _ View) ([]byte, error) {
				usage, _ := k.IdleCounters(si, cpu)
				b = apInt(b, int64(usage))
				return append(b, '\n'), nil
			})
			fs.add(base+"/time", func(b []byte, _ View) ([]byte, error) {
				_, timeUS := k.IdleCounters(si, cpu)
				b = apInt(b, int64(timeUS))
				return append(b, '\n'), nil
			})
		}
	}

	// /sys/devices/system/cpu/cpu#/cpufreq/…: the DVFS governor's per-core
	// frequency interface. scaling_cur_freq and stats/total_trans are
	// host-global dynamic reads (the frequency channel — a container
	// observes the whole machine's load through its neighbours' P-state
	// transitions); the range/driver/governor files are fleet-static.
	gov := k.Freq()
	for cpu := 0; cpu < k.Options().Cores; cpu++ {
		cpu := cpu
		base := fmt.Sprintf("/sys/devices/system/cpu/cpu%d/cpufreq", cpu)
		fs.add(base+"/scaling_cur_freq", func(b []byte, _ View) ([]byte, error) {
			b = apUint(b, k.Freq().CurKHz(cpu))
			return append(b, '\n'), nil
		})
		fs.add(base+"/stats/total_trans", func(b []byte, _ View) ([]byte, error) {
			b = apUint(b, k.Freq().Transitions(cpu))
			return append(b, '\n'), nil
		})
		fs.static(base+"/scaling_governor", gov.Name()+"\n")
		fs.static(base+"/scaling_available_governors", "performance powersave "+gov.Name()+"\n")
		fs.static(base+"/scaling_driver", "acpi-cpufreq\n")
		fs.static(base+"/scaling_min_freq", fmt.Sprintf("%d\n", gov.MinKHz()))
		fs.static(base+"/scaling_max_freq", fmt.Sprintf("%d\n", gov.MaxKHz()))
		fs.static(base+"/cpuinfo_min_freq", fmt.Sprintf("%d\n", gov.MinKHz()))
		fs.static(base+"/cpuinfo_max_freq", fmt.Sprintf("%d\n", gov.MaxKHz()))
	}

	// /sys/devices/platform/coretemp.0/hwmon/hwmon1/temp#_input: DTS
	// sensors in millidegrees. temp1 is the package, temp2..tempN+1 the
	// cores.
	if hw.HasCoretemp {
		fs.add("/sys/devices/platform/coretemp.0/hwmon/hwmon1/temp1_input", func(b []byte, v View) ([]byte, error) {
			t, err := fs.thermal.CoreTempC(v, -1)
			if err != nil {
				return b, err
			}
			b = apInt(b, int64(t*1000))
			return append(b, '\n'), nil
		})
		for c := 0; c < k.Options().Cores; c++ {
			c := c
			fs.add(fmt.Sprintf("/sys/devices/platform/coretemp.0/hwmon/hwmon1/temp%d_input", c+2),
				func(b []byte, v View) ([]byte, error) {
					t, err := fs.thermal.CoreTempC(v, c)
					if err != nil {
						return b, err
					}
					b = apInt(b, int64(t*1000))
					return append(b, '\n'), nil
				})
		}
	}

	// /sys/class/powercap/intel-rapl — Case Study II. energy_uj goes
	// through the FS's EnergyProvider so the power-based namespace can
	// virtualize it later without changing paths.
	if hw.HasRAPL {
		domains := []struct {
			dir  string
			name string
			dom  power.Domain
		}{
			{"/sys/class/powercap/intel-rapl:0", "package-0", power.Package},
			{"/sys/class/powercap/intel-rapl:0/intel-rapl:0:0", "core", power.Core},
			{"/sys/class/powercap/intel-rapl:0/intel-rapl:0:1", "dram", power.DRAM},
		}
		for _, d := range domains {
			d := d
			fs.static(d.dir+"/name", d.name+"\n")
			fs.add(d.dir+"/energy_uj", func(b []byte, v View) ([]byte, error) {
				uj, err := fs.energy.EnergyUJ(v, d.dom)
				if err != nil {
					return b, err
				}
				b = apUint(b, uj)
				return append(b, '\n'), nil
			})
			fs.static(d.dir+"/max_energy_range_uj",
				fmt.Sprintf("%d\n", k.Meter().MaxEnergyRangeUJ()))
		}
	}

	// /sys/devices/system/cpu/online: topology, fleet-static.
	fs.static("/sys/devices/system/cpu/online", fmt.Sprintf("0-%d\n", k.Options().Cores-1))
}
