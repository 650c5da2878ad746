// Package core implements the paper's primary contribution: the framework
// of Figure 1 for systematically discovering in-container information
// leakage channels and assessing their exploitability.
//
// It has three parts:
//
//   - the cross-validation detector (detect.go), which walks procfs/sysfs in
//     a host context and a container context, pairwise-diffs file contents,
//     and classifies each file as leaking, partially leaking, namespaced,
//     masked, or absent;
//   - the channel registry (this file), the analyst knowledge from Tables
//     I–II: which pseudo-files form a channel, what they leak, and the
//     uniqueness / variation / manipulation assessment;
//   - the metrics engine (metrics.go), which measures V empirically, scores
//     information capacity with the joint Shannon entropy of Formula (1),
//     and ranks channels for co-residence inference (Table II).
package core

// MLevel grades the manipulation metric M: whether a tenant can implant
// recognizable data into the channel.
type MLevel int

// Manipulation levels: None (○), Indirect (◐ — influence via workload, e.g.
// heating a pinned core), Direct (● — implant crafted data, e.g. a task
// name in timer_list).
const (
	MNone MLevel = iota
	MIndirect
	MDirect
)

// String renders the level the way Table II prints it.
func (m MLevel) String() string {
	switch m {
	case MDirect:
		return "●"
	case MIndirect:
		return "◐"
	default:
		return "○"
	}
}

// UClass describes how a uniquely-identifying channel identifies the host
// (Section III-C's three groups).
type UClass int

// Uniqueness classes, in Table II rank order.
const (
	UNone    UClass = iota // channel does not uniquely identify a host
	UStatic                // group 1: unique static identifier (boot_id)
	UImplant               // group 2: tenant can implant a unique signature
	UDynamic               // group 3: unique accumulating counters
)

// Channel is one leakage channel: a named family of pseudo-files plus the
// analyst assessment of Table I (vulnerability classes) and Table II
// (U/V/M) — everything except what must be *measured* (availability per
// cloud, variation, entropy), which the detector and metrics engine
// produce.
type Channel struct {
	// Name is the path (or path family) as Tables I–II print it.
	Name string
	// Paths are the concrete file patterns (pseudofs rule syntax).
	Paths []string
	// Info is the "Leakage Information" column of Table I.
	Info string

	// Table I vulnerability flags.
	CoRes, DoS, InfoLeak bool

	// Table II assessment.
	Uniqueness UClass
	Manipulate MLevel
	// GrowthPerSec orders UDynamic channels: a faster-growing counter has
	// less chance of cross-host collision.
	GrowthPerSec float64
}

// TableIChannels returns the 21 channel families of Table I, in the
// paper's row order.
func TableIChannels() []Channel {
	return []Channel{
		{Name: "/proc/locks", Paths: []string{"/proc/locks"},
			Info: "Files locked by the kernel", CoRes: true, InfoLeak: true,
			Uniqueness: UImplant, Manipulate: MDirect},
		{Name: "/proc/zoneinfo", Paths: []string{"/proc/zoneinfo"},
			Info: "Physical RAM information", CoRes: true, InfoLeak: true,
			Uniqueness: UNone, Manipulate: MIndirect},
		{Name: "/proc/modules", Paths: []string{"/proc/modules"},
			Info: "Loaded kernel modules information", InfoLeak: true,
			Uniqueness: UNone, Manipulate: MNone},
		{Name: "/proc/timer_list", Paths: []string{"/proc/timer_list"},
			Info: "Configured clocks and timers", CoRes: true, InfoLeak: true,
			Uniqueness: UImplant, Manipulate: MDirect},
		{Name: "/proc/sched_debug", Paths: []string{"/proc/sched_debug"},
			Info: "Task scheduler behavior", CoRes: true, InfoLeak: true,
			Uniqueness: UImplant, Manipulate: MDirect},
		{Name: "/proc/softirqs", Paths: []string{"/proc/softirqs"},
			Info: "Number of invoked softirq handler", CoRes: true, DoS: true, InfoLeak: true,
			Uniqueness: UDynamic, Manipulate: MIndirect, GrowthPerSec: 800},
		{Name: "/proc/uptime", Paths: []string{"/proc/uptime"},
			Info: "Up and idle time", CoRes: true, InfoLeak: true,
			Uniqueness: UDynamic, Manipulate: MIndirect, GrowthPerSec: 9},
		{Name: "/proc/version", Paths: []string{"/proc/version"},
			Info: "Kernel, gcc, distribution version", InfoLeak: true,
			Uniqueness: UNone, Manipulate: MNone},
		{Name: "/proc/stat", Paths: []string{"/proc/stat"},
			Info: "Kernel activities", CoRes: true, DoS: true, InfoLeak: true,
			Uniqueness: UDynamic, Manipulate: MIndirect, GrowthPerSec: 1200},
		{Name: "/proc/meminfo", Paths: []string{"/proc/meminfo"},
			Info: "Memory information", CoRes: true, DoS: true, InfoLeak: true,
			Uniqueness: UNone, Manipulate: MIndirect},
		{Name: "/proc/loadavg", Paths: []string{"/proc/loadavg"},
			Info: "CPU and IO utilization over time", CoRes: true, InfoLeak: true,
			Uniqueness: UNone, Manipulate: MIndirect},
		{Name: "/proc/interrupts", Paths: []string{"/proc/interrupts"},
			Info: "Number of interrupts per IRQ", CoRes: true, InfoLeak: true,
			Uniqueness: UDynamic, Manipulate: MIndirect, GrowthPerSec: 2400},
		{Name: "/proc/cpuinfo", Paths: []string{"/proc/cpuinfo"},
			Info: "CPU information", CoRes: true, InfoLeak: true,
			Uniqueness: UNone, Manipulate: MNone},
		{Name: "/proc/schedstat", Paths: []string{"/proc/schedstat"},
			Info: "Schedule statistics", CoRes: true, InfoLeak: true,
			Uniqueness: UDynamic, Manipulate: MIndirect, GrowthPerSec: 1000},
		{Name: "/proc/sys/fs/*", Paths: []string{
			"/proc/sys/fs/dentry-state", "/proc/sys/fs/inode-nr", "/proc/sys/fs/file-nr"},
			Info: "File system information", CoRes: true, InfoLeak: true,
			Uniqueness: UDynamic, Manipulate: MIndirect, GrowthPerSec: 40},
		{Name: "/proc/sys/kernel/random/*", Paths: []string{"/proc/sys/kernel/random/*"},
			Info: "Random number generation info", CoRes: true, InfoLeak: true,
			Uniqueness: UStatic, Manipulate: MNone},
		{Name: "/proc/sys/kernel/sched_domain/*", Paths: []string{
			"/proc/sys/kernel/sched_domain/cpu*/domain*/max_newidle_lb_cost"},
			Info: "Schedule domain info", CoRes: true, InfoLeak: true,
			Uniqueness: UNone, Manipulate: MNone},
		{Name: "/proc/fs/ext4/*", Paths: []string{"/proc/fs/ext4/sda1/mb_groups"},
			Info: "Ext4 file system info", CoRes: true, InfoLeak: true,
			Uniqueness: UNone, Manipulate: MIndirect},
		{Name: "/sys/fs/cgroup/net_prio/*", Paths: []string{
			"/sys/fs/cgroup/net_prio/net_prio.ifpriomap"},
			Info: "Priorities assigned to traffic", InfoLeak: true,
			Uniqueness: UStatic, Manipulate: MNone},
		{Name: "/sys/devices/*", Paths: []string{
			"/sys/devices/system/node/node0/numastat",
			"/sys/devices/system/node/node0/vmstat",
			"/sys/devices/system/node/node0/meminfo",
			"/sys/devices/system/cpu/cpu*/cpuidle/state*/usage",
			"/sys/devices/system/cpu/cpu*/cpuidle/state*/time",
			"/sys/devices/platform/coretemp.0/hwmon/hwmon1/temp*_input"},
			Info: "System device information", CoRes: true, DoS: true, InfoLeak: true,
			Uniqueness: UDynamic, Manipulate: MIndirect, GrowthPerSec: 300},
		{Name: "/sys/class/*", Paths: []string{
			"/sys/class/powercap/intel-rapl:0/energy_uj",
			"/sys/class/powercap/intel-rapl:0/intel-rapl:0:0/energy_uj",
			"/sys/class/powercap/intel-rapl:0/intel-rapl:0:1/energy_uj"},
			Info: "System device information", DoS: true, InfoLeak: true,
			Uniqueness: UDynamic, Manipulate: MIndirect, GrowthPerSec: 3e7},
	}
}

// FrequencyChannel is the DVFS side channel: per-core cpufreq readings
// follow host-wide load under the schedutil governor, so a tenant that
// samples scaling_cur_freq (or the P-state transition counters) observes
// its neighbours' activity even when every classic procfs channel is
// proxied away by a sandboxed runtime. It is not a Table I row — it
// extends the matrix past the paper's channel set.
func FrequencyChannel() Channel {
	return Channel{
		Name: "/sys/devices/system/cpu/*/cpufreq/*",
		Paths: []string{
			"/sys/devices/system/cpu/cpu*/cpufreq/scaling_cur_freq",
			"/sys/devices/system/cpu/cpu*/cpufreq/stats/total_trans",
		},
		Info:  "Per-core DVFS frequency and P-state transitions",
		CoRes: true, InfoLeak: true,
		Uniqueness: UDynamic, Manipulate: MIndirect, GrowthPerSec: 50,
	}
}

// MatrixChannels returns the channel set of the runtime-aware matrix: the
// 21 Table I families plus the frequency channel. Table1Seeded keeps using
// TableIChannels so the paper's table stays byte-identical; the matrix
// sweep and discovery use this superset.
func MatrixChannels() []Channel {
	return append(TableIChannels(), FrequencyChannel())
}

// TableIIChannels returns the 29 fine-grained rows of Table II. Rows that
// coincide with a Table I family reuse its assessment at file granularity.
func TableIIChannels() []Channel {
	return []Channel{
		{Name: "/proc/sys/kernel/random/boot_id", Paths: []string{"/proc/sys/kernel/random/boot_id"},
			Uniqueness: UStatic, Manipulate: MNone},
		{Name: "/sys/fs/cgroup/net_prio/net_prio.ifpriomap", Paths: []string{"/sys/fs/cgroup/net_prio/net_prio.ifpriomap"},
			Uniqueness: UStatic, Manipulate: MNone},
		{Name: "/proc/sched_debug", Paths: []string{"/proc/sched_debug"},
			Uniqueness: UImplant, Manipulate: MDirect},
		{Name: "/proc/timer_list", Paths: []string{"/proc/timer_list"},
			Uniqueness: UImplant, Manipulate: MDirect},
		{Name: "/proc/locks", Paths: []string{"/proc/locks"},
			Uniqueness: UImplant, Manipulate: MDirect},
		{Name: "/proc/uptime", Paths: []string{"/proc/uptime"},
			Uniqueness: UDynamic, Manipulate: MIndirect, GrowthPerSec: 9},
		{Name: "/proc/stat", Paths: []string{"/proc/stat"},
			Uniqueness: UDynamic, Manipulate: MIndirect, GrowthPerSec: 1200},
		{Name: "/proc/schedstat", Paths: []string{"/proc/schedstat"},
			Uniqueness: UDynamic, Manipulate: MIndirect, GrowthPerSec: 1000},
		{Name: "/proc/softirqs", Paths: []string{"/proc/softirqs"},
			Uniqueness: UDynamic, Manipulate: MIndirect, GrowthPerSec: 800},
		{Name: "/proc/interrupts", Paths: []string{"/proc/interrupts"},
			Uniqueness: UDynamic, Manipulate: MIndirect, GrowthPerSec: 2400},
		{Name: "/sys/devices/system/node/node#/numastat", Paths: []string{"/sys/devices/system/node/node0/numastat"},
			Uniqueness: UDynamic, Manipulate: MIndirect, GrowthPerSec: 5000},
		{Name: "/sys/class/powercap/.../energy_uj", Paths: []string{
			"/sys/class/powercap/intel-rapl:0/energy_uj"},
			Uniqueness: UDynamic, Manipulate: MIndirect, GrowthPerSec: 3e7},
		{Name: "/sys/devices/system/.../usage", Paths: []string{"/sys/devices/system/cpu/cpu*/cpuidle/state*/usage"},
			Uniqueness: UDynamic, Manipulate: MIndirect, GrowthPerSec: 80},
		{Name: "/sys/devices/system/.../time", Paths: []string{"/sys/devices/system/cpu/cpu*/cpuidle/state*/time"},
			Uniqueness: UDynamic, Manipulate: MIndirect, GrowthPerSec: 120000},
		{Name: "/proc/sys/fs/dentry-state", Paths: []string{"/proc/sys/fs/dentry-state"},
			Uniqueness: UDynamic, Manipulate: MIndirect, GrowthPerSec: 42},
		{Name: "/proc/sys/fs/inode-nr", Paths: []string{"/proc/sys/fs/inode-nr"},
			Uniqueness: UDynamic, Manipulate: MIndirect, GrowthPerSec: 21},
		{Name: "/proc/sys/fs/file-nr", Paths: []string{"/proc/sys/fs/file-nr"},
			Uniqueness: UDynamic, Manipulate: MIndirect, GrowthPerSec: 10},
		{Name: "/proc/zoneinfo", Paths: []string{"/proc/zoneinfo"},
			Uniqueness: UNone, Manipulate: MIndirect},
		{Name: "/proc/meminfo", Paths: []string{"/proc/meminfo"},
			Uniqueness: UNone, Manipulate: MIndirect},
		{Name: "/proc/fs/ext4/sda#/mb_groups", Paths: []string{"/proc/fs/ext4/sda1/mb_groups"},
			Uniqueness: UNone, Manipulate: MIndirect},
		{Name: "/sys/devices/system/node/node#/vmstat", Paths: []string{"/sys/devices/system/node/node0/vmstat"},
			Uniqueness: UNone, Manipulate: MIndirect},
		{Name: "/sys/devices/system/node/node#/meminfo", Paths: []string{"/sys/devices/system/node/node0/meminfo"},
			Uniqueness: UNone, Manipulate: MIndirect},
		{Name: "/sys/devices/platform/.../temp#_input", Paths: []string{
			"/sys/devices/platform/coretemp.0/hwmon/hwmon1/temp*_input"},
			Uniqueness: UNone, Manipulate: MIndirect},
		{Name: "/proc/loadavg", Paths: []string{"/proc/loadavg"},
			Uniqueness: UNone, Manipulate: MIndirect},
		{Name: "/proc/sys/kernel/random/entropy_avail", Paths: []string{"/proc/sys/kernel/random/entropy_avail"},
			Uniqueness: UNone, Manipulate: MIndirect},
		{Name: "/proc/sys/kernel/.../max_newidle_lb_cost", Paths: []string{
			"/proc/sys/kernel/sched_domain/cpu*/domain*/max_newidle_lb_cost"},
			Uniqueness: UNone, Manipulate: MNone},
		{Name: "/proc/modules", Paths: []string{"/proc/modules"},
			Uniqueness: UNone, Manipulate: MNone},
		{Name: "/proc/cpuinfo", Paths: []string{"/proc/cpuinfo"},
			Uniqueness: UNone, Manipulate: MNone},
		{Name: "/proc/version", Paths: []string{"/proc/version"},
			Uniqueness: UNone, Manipulate: MNone},
	}
}
