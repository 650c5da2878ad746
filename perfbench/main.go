// Command perfbench is the repository's end-to-end and per-layer
// benchmark. It drives three workloads from one process through the
// public functions of the layers they cross:
//
//	fig3-campaign  the Fig. 3 synergistic/periodic/background comparison, one seed after another
//	scan-mix       closed-loop leaksd scans over /v1, plus fleet scans on a cluster coordinator
//	serve-read     open-loop and back-to-back /v1 reads beside a low rate of scan submissions
//
// Run it from the root of a checkout through its build script:
//
//	bash perfbench/run.sh --workload scan-mix --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end ones; with --trace 1 they are the per-layer ones, and the
// spans and CPU profile of the run are written under .bench_out/. See
// perfbench/README.md for what every metric means.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// outDir holds the spans and profiles of traced runs, relative to the
// checkout root the benchmark runs from.
const outDir = ".bench_out"

// procs is the GOMAXPROCS of every run and of its child processes. The
// reference host has 2 vCPUs shared with other guests; with one P the
// program's own goroutines never compete for them with each other, and a
// busy neighbour on the other vCPU costs little. The tick fan-out therefore
// runs serially in the timed windows (parallel.Workers clamps at one P);
// simclock.allocs_per_advance is still measured at GOMAXPROCS = nproc.
const procs = 1

// setupRepeats is how many times a run builds its workload in a fresh
// child process to measure setup_s; the median is reported.
const setupRepeats = 21

// window is what one timed measurement of a workload produced.
type window struct {
	attempted int
	failed    int
	elapsed   time.Duration
	// throughput is the workload's operations per second (for serve-read,
	// the back-to-back read capacity).
	throughput float64
	// cpuMS, when set, replaces the process CPU time of the window per
	// completed operation (fig3-campaign leaves out the traced run's
	// allocation loops; serve-read counts only its back-to-back reads).
	cpuMS float64
	// latMS holds the per-operation latencies in milliseconds.
	latMS []float64
	// memMB, when set, replaces the peak RSS read at the end of the
	// window (scan-mix reads it after a fixed number of scans).
	memMB float64
	// layers are the per-layer metrics the workload computed itself.
	layers map[string]float64
	// notes are extra figures printed on the detail line.
	notes map[string]any
}

// p50 returns the run's median latency in milliseconds.
func (w *window) p50() float64 {
	return quantile(sortedCopy(w.latMS), 0.5)
}

// cpuPerOp returns the CPU milliseconds per completed operation, given
// the process CPU seconds the window used.
func (w *window) cpuPerOp(cpuS float64) float64 {
	if w.cpuMS > 0 {
		return w.cpuMS
	}
	if done := w.attempted - w.failed; done > 0 {
		return cpuS * 1e3 / float64(done)
	}
	return 0
}

// harness is one workload, built and ready to measure.
type harness interface {
	// measure runs operations until the deadline passes. A non-nil tracer
	// makes it record spans and layer counters.
	measure(until time.Time, tr *tracer) *window
	// verify runs the workload's correctness checks outside the timed
	// window and returns how many it made and how many failed.
	verify(w *window) (attempted, failed int)
	close()
}

var workloads = map[string]func(seed int64) (harness, error){
	"fig3-campaign": newFig3,
	"scan-mix":      newScanMix,
	"serve-read":    newServeRead,
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// endToEnd lists the untraced metrics with their units, in print order.
var endToEnd = []struct{ name, unit string }{
	{"cpu_ms_per_op", "ms"},
	{"latency_p50_ms", "ms"},
	{"setup_s", "s"},
	{"mem_peak_mb", "MB"},
}

// perLayer lists the traced metrics with their units, in print order. A
// layer the workload does not reach reads 0.
var perLayer = []struct{ name, unit string }{
	{"simclock.advance_per_s", "1/s"},
	{"simclock.allocs_per_advance", "count"},
	{"simclock.shard_phase_share", "ratio"},
	{"kernel.cpu_share", "ratio"},
	{"fastrand.cpu_share", "ratio"},
	{"power.cpu_share", "ratio"},
	{"cloud.build_ms", "ms"},
	{"cloud.snapshot_ms", "ms"},
	{"cloud.restore_ms", "ms"},
	{"attack.campaign_self_ms", "ms"},
	{"service.queue_wait_ms", "ms"},
	{"service.run_ms", "ms"},
	{"service.dedup_hit_ratio", "ratio"},
	{"service.session_hit_ratio", "ratio"},
	{"service.queue_rejects", "count"},
	{"experiments.restores_per_build", "ratio"},
	{"engine.finding_hit_ratio", "ratio"},
	{"engine.host_renders_per_scan", "count"},
	{"pseudofs.cpu_share", "ratio"},
	{"engine.cpu_share", "ratio"},
	{"core.cpu_share", "ratio"},
	{"cluster.scan_ms", "ms"},
	{"cluster.shard_ms", "ms"},
	{"cluster.requeues", "count"},
	{"respcache.hit_ratio", "ratio"},
	{"respcache.hit_us", "us"},
	{"respcache.miss_us", "us"},
	{"respcache.not_modified_ratio", "ratio"},
	{"service.invalidations_per_s", "1/s"},
	{"http.allocs_per_req", "count"},
	{"loadgen.late_p99_us", "us"},
	{"gc.cpu_share", "ratio"},
	{"gc.pause_p99_us", "us"},
	{"trace.overhead_ratio", "ratio"},
}

// profiledPackages maps the per-layer CPU-share metrics to the packages
// whose self time they sum.
var profiledPackages = map[string]string{
	"kernel.cpu_share":   "repro/internal/kernel",
	"fastrand.cpu_share": "repro/internal/fastrand",
	"power.cpu_share":    "repro/internal/power",
	"pseudofs.cpu_share": "repro/internal/pseudofs",
	"engine.cpu_share":   "repro/internal/engine",
	"core.cpu_share":     "repro/internal/core",
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "fig3-campaign, scan-mix or serve-read")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 20, "length of the timed window")
	trace := fs.Int("trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics from a traced run")
	probe := fs.Bool("setup-probe", false, "build the workload, print when it is ready, tear it down and exit (times setup_s)")
	reference := fs.Bool("reference", false, "untraced run without setup probes (the baseline of a traced run)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runtime.GOMAXPROCS(procs)
	build, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown -workload %q (fig3-campaign, scan-mix, serve-read)\n", *name)
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: need -seconds > 0 and -trace 0 or 1")
		return 2
	}
	if *probe {
		h, err := build(*seed)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: setup: %v\n", err)
			return 1
		}
		// Setup is timed up to this instant, so the teardown and exit
		// below are not counted.
		fmt.Fprintf(stdout, "ready %d %d\n", time.Now().UnixNano(), secondsDur(processCPU()).Nanoseconds())
		h.close()
		return 0
	}

	fp := fingerprint(*name, *seed, *seconds, *trace)
	fmt.Fprintf(stdout, "fingerprint %s\n", mustJSON(fp))
	var res *result
	var err error
	if *trace == 1 {
		res, err = runTraced(*name, build, *seed, *seconds, stdout)
	} else {
		res, err = runUntraced(*name, build, *seed, *seconds, !*reference, stdout)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, mustJSON(res))
	return 0
}

// runUntraced measures the end-to-end metrics.
func runUntraced(name string, build func(int64) (harness, error), seed int64, seconds float64,
	probes bool, stdout io.Writer) (*result, error) {
	var setup, setupWall []float64
	if probes {
		for i := 0; i < setupRepeats; i++ {
			wall, cpu, err := setupProbe(name, seed)
			if err != nil {
				return nil, err
			}
			setup = append(setup, cpu.Seconds())
			setupWall = append(setupWall, wall.Seconds())
		}
	}
	h, err := build(seed)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer h.close()
	if !probes {
		setup = []float64{processCPU()}
	}

	cpu0 := readCPUTimes()
	pc0 := processCPU()
	w := h.measure(time.Now().Add(secondsDur(seconds)), nil)
	cpuS := processCPU() - pc0
	peak := peakRSSMB()
	if w.memMB > 0 {
		peak = w.memMB
	}
	steal := stealShare(cpu0, readCPUTimes())
	va, vf := h.verify(w)

	lat := sortedCopy(w.latMS)
	notes := map[string]any{
		"samples":        len(lat),
		"latency_p25_ms": quantile(lat, 0.25),
		"latency_p75_ms": quantile(lat, 0.75),
		"latency_p90_ms": quantile(lat, 0.90),
		"latency_p99_ms": quantile(lat, 0.99),
		"elapsed_s":      w.elapsed.Seconds(),
		"setup_runs_s":   setup,
		"setup_wall_s":   median(setupWall),
		"host_steal":     steal,
		"cpu_s":          cpuS,
		"ops_per_s":      w.throughput,
		"checks":         va,
		"checks_failed":  vf,
	}
	for k, v := range w.notes {
		notes[k] = v
	}
	fmt.Fprintf(stdout, "detail %s\n", mustJSON(notes))
	vals := map[string]float64{
		"cpu_ms_per_op":  w.cpuPerOp(cpuS),
		"latency_p50_ms": w.p50(),
		"setup_s":        median(setup),
		"mem_peak_mb":    peak,
	}
	return assemble(w, va, vf, endToEnd, vals), nil
}

// runTraced measures the per-layer metrics. The first half of the time
// runs the same workload and seed untraced in a child process (a fresh
// process, so no pooled world carries over), the second half traced in
// this one; the gap between the two is the tracing overhead.
func runTraced(name string, build func(int64) (harness, error), seed int64, seconds float64,
	stdout io.Writer) (*result, error) {
	half := seconds / 2
	ref, err := referenceRun(name, seed, half)
	if err != nil {
		return nil, err
	}

	h, err := build(seed)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer h.close()
	tr := newTracer()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	rt0 := readRuntime()
	pc0 := processCPU()
	w := h.measure(time.Now().Add(secondsDur(half)), tr)
	cpuMS := w.cpuPerOp(processCPU() - pc0)
	rt1 := readRuntime()
	pprof.StopCPUProfile()
	va, vf := h.verify(w)

	shares, err := packageShares(prof.Bytes(), "repro/")
	if err != nil {
		return nil, err
	}
	vals := map[string]float64{
		"gc.cpu_share":    gcShare(rt0, rt1),
		"gc.pause_p99_us": pauseP99us(rt0, rt1),
	}
	for metric, pkg := range profiledPackages {
		vals[metric] = shares[pkg]
	}
	for k, v := range w.layers {
		vals[k] = v
	}
	if untraced := ref.Metrics["cpu_ms_per_op"].Value; untraced > 0 {
		vals["trace.overhead_ratio"] = cpuMS/untraced - 1
	}

	base := filepath.Join(outDir, fmt.Sprintf("%s-seed%d", name, seed))
	if err := tr.write(base + "-spans.jsonl"); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	if err := os.WriteFile(base+"-cpu.pprof", prof.Bytes(), 0o644); err != nil {
		return nil, fmt.Errorf("write profile: %w", err)
	}
	agg := tr.byName()
	names := make([]string, 0, len(agg))
	for n := range agg {
		names = append(names, n)
	}
	sort.Strings(names)
	spans := make(map[string]map[string]float64, len(agg))
	for _, n := range names {
		lt := agg[n]
		spans[n] = map[string]float64{"count": float64(lt.Count),
			"total_ms": float64(lt.Total) / 1e6, "self_ms": float64(lt.Self) / 1e6}
	}
	notes := map[string]any{
		"spans_file":              base + "-spans.jsonl",
		"span_self_time":          spans,
		"untraced_cpu_ms_per_op":  ref.Metrics["cpu_ms_per_op"].Value,
		"traced_cpu_ms_per_op":    cpuMS,
		"traced_ops_per_s":        w.throughput,
		"untraced_latency_p50_ms": ref.Metrics["latency_p50_ms"].Value,
		"traced_latency_p50_ms":   w.p50(),
		"checks":                  va,
		"checks_failed":           vf,
	}
	for k, v := range w.notes {
		notes[k] = v
	}
	fmt.Fprintf(stdout, "detail %s\n", mustJSON(notes))
	res := assemble(w, va, vf, perLayer, vals)
	if !ref.Correct {
		res.Correct = false
	}
	res.Attempted += ref.Attempted
	res.Failed += ref.Failed
	return res, nil
}

// assemble builds the result line: operations and checks attempted and
// failed, and every listed metric (0 where vals has none).
func assemble(w *window, checks, checksFailed int, list []struct{ name, unit string },
	vals map[string]float64) *result {
	res := &result{
		Attempted: w.attempted + checks,
		Failed:    w.failed + checksFailed,
		Metrics:   make(map[string]metricValue, len(list)),
	}
	if res.Attempted < 1 {
		res.Attempted = 1
		res.Failed++
	}
	res.Correct = res.Failed == 0
	for _, m := range list {
		res.Metrics[m.name] = metricValue{Value: vals[m.name], Unit: m.unit}
	}
	return res
}

// setupProbe builds the workload in a fresh child process. It returns
// the wall time from launching the process until the workload was ready
// for its first timed operation, and the CPU time the child had used by
// then. The child reports both itself, so its teardown and exit are not
// counted.
func setupProbe(name string, seed int64) (wall, cpu time.Duration, err error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, 0, err
	}
	cmd := exec.Command(exe, "-workload", name, "-seed", strconv.FormatInt(seed, 10), "-setup-probe")
	cmd.Stderr = os.Stderr
	t0 := time.Now()
	out, err := cmd.Output()
	if err != nil {
		return 0, 0, fmt.Errorf("setup probe: %w", err)
	}
	var ready, cpuNS int64
	if _, err := fmt.Sscanf(string(out), "ready %d %d", &ready, &cpuNS); err != nil {
		return 0, 0, fmt.Errorf("setup probe: %q: %w", out, err)
	}
	return time.Unix(0, ready).Sub(t0), time.Duration(cpuNS), nil
}

// referenceRun runs the workload untraced in a child process and returns
// its result line.
func referenceRun(name string, seed int64, seconds float64) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'f', -1, 64), "-trace", "0", "-reference")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("untraced reference run: %w", err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("untraced reference run: %w", err)
	}
	return &res, nil
}

// fingerprint names the host and the run.
func fingerprint(name string, seed int64, seconds float64, trace int) map[string]any {
	// A checkout without git history builds without VCS stamps.
	rev, dirty := "unknown", false
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = true
			}
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return map[string]any{
		"cpu_model":  cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"git_rev":    rev,
		"workload":   name,
		"seed":       seed,
		"seconds":    seconds,
		"trace":      trace,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// readCPUTimes returns the host-wide CPU time counters of /proc/stat
// (user, nice, system, idle, iowait, irq, softirq, steal, …).
func readCPUTimes() []float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return nil
	}
	var out []float64
	for _, f := range fields[1:] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return nil
		}
		out = append(out, v)
	}
	return out
}

// stealShare returns the share of the host's CPU time the hypervisor gave
// to other guests between two readings: the noise a run had to absorb.
func stealShare(a, b []float64) float64 {
	if len(a) < 8 || len(b) < 8 {
		return 0
	}
	var total float64
	for i := 0; i < 8; i++ { // guest time is already inside user and nice
		total += b[i] - a[i]
	}
	if total <= 0 {
		return 0
	}
	return (b[7] - a[7]) / total
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// processCPU returns the user plus system CPU seconds the process has used.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

func median(v []float64) float64 { return quantile(sortedCopy(v), 0.5) }

func secondsDur(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return string(b)
}
