package main

import (
	"fmt"
	"reflect"
	"runtime"
	"strconv"
	"time"

	"repro/internal/attack"
	"repro/internal/cloud"
	"repro/internal/container"
	"repro/internal/experiments"
	"repro/internal/simclock"
)

// fig3Campaign runs full Fig. 3 comparisons from the workload seed on,
// one seed after another. Each seed calls the layers in the order
// experiments.Fig3 does: build and warm up the world, spread the attack
// containers across the rack, snapshot it, run the synergistic campaign,
// restore, run the periodic campaign, restore, and run the background-only
// loop. The per-seed world build is part of every operation: a user pays
// it on every CLI run.
type fig3Campaign struct {
	base int64

	// first is the result of the first timed seed, re-run during
	// verification to check that the timed path is deterministic.
	first     *experiments.Fig3Result
	firstSeed int64
}

func newFig3(seed int64) (harness, error) { return &fig3Campaign{base: seed}, nil }

func (f *fig3Campaign) close() {}

// tickMarks times the shard and post phases of every Advance through two
// RNG-free marker tickers: one appended last to the pre-phase (its tick
// opens the shard phase) and one appended last to the post-phase (its
// tick closes the step). They run on the caller's goroutine.
type tickMarks struct {
	start    time.Time
	advances int
	ticking  time.Duration
}

func (m *tickMarks) install(c *simclock.Clock) {
	c.OnTick(simclock.TickerFunc(func(_, _ float64) { m.start = time.Now() }))
	c.OnPostTick(simclock.TickerFunc(func(_, _ float64) {
		m.ticking += time.Since(m.start)
		m.advances++
	}))
}

// fig3Stats accumulates the layer counters of the traced run.
type fig3Stats struct {
	marks          tickMarks
	campaignTick   time.Duration // ticking inside the two campaigns
	campaignsTimed int
}

// fig3Replica runs one seed. With a tracer it records a span per layer
// call and feeds st; without one it runs the plain layer calls.
func fig3Replica(seed int64, tr *tracer, st *fig3Stats) (*experiments.Fig3Result, error) {
	op := "seed-" + strconv.FormatInt(seed, 10)
	root := tr.begin("fig3.seed", op, -1)
	defer tr.end(root)

	sp := tr.begin("cloud.build", op, root)
	var marks *tickMarks
	if tr != nil {
		marks = &st.marks
	}
	dc, rack, cs, err := fig3World(seed, marks)
	tr.end(sp)
	if err != nil {
		return nil, err
	}

	sp = tr.begin("cloud.snapshot", op, root)
	snap := dc.Snapshot()
	tr.end(sp)

	campaign := func(name string, run func() (attack.Result, error)) (attack.Result, error) {
		before := st.ticking()
		sp := tr.begin(name, op, root)
		r, err := run()
		tr.end(sp)
		if tr != nil {
			st.campaignTick += st.ticking() - before
			st.campaignsTimed++
		}
		return r, err
	}
	restore := func() {
		sp := tr.begin("cloud.restore", op, root)
		dc.Restore(snap)
		tr.end(sp)
	}

	cfg := attack.DefaultConfig()
	cfg.TriggerNearMax = 0.95
	cfg.WarmupSeconds = 600
	cfg.CooldownSeconds = 240
	syn, err := campaign("attack.synergistic", func() (attack.Result, error) {
		return attack.RunSynergistic(dc, rack, cs, cfg, 3000)
	})
	if err != nil {
		return nil, fmt.Errorf("seed %d: synergistic: %w", seed, err)
	}
	restore()
	per, _ := campaign("attack.periodic", func() (attack.Result, error) {
		return attack.RunPeriodic(dc, rack, cs, attack.DefaultConfig(), 3000, 300), nil
	})
	restore()

	sp = tr.begin("power.background", op, root)
	var bgPeak float64
	for t := 0; t < 3000; t++ {
		dc.Clock.Advance(1)
		if w := rack.Power(); w > bgPeak {
			bgPeak = w
		}
	}
	tr.end(sp)
	return &experiments.Fig3Result{Synergistic: syn, Periodic: per, BackgroundPeakW: bgPeak}, nil
}

// fig3World builds and warms up the Fig. 3 world of seed and spreads the
// attack containers across its rack. With marks, the simclock marker
// tickers go on the clock right after cloud.New.
func fig3World(seed int64, marks *tickMarks) (*cloud.Datacenter, *cloud.Rack, []*container.Container, error) {
	dc := cloud.New(cloud.Config{
		Racks: 1, ServersPerRack: 8, CoresPerServer: 24, Seed: seed,
		BreakerRatedW: 1e9,
		Benign:        cloud.BenignConfig{FlashCrowdPerDay: 48, FlashMinS: 60, FlashMaxS: 240, SharedFlash: true},
	})
	if marks != nil {
		marks.install(dc.Clock)
	}
	dc.Clock.Run(16*3600, 30)
	agg, err := attack.SpreadAcrossRack(dc, "mallory", 6, 4, 3600, 600)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("seed %d: spread: %w", seed, err)
	}
	return dc, agg.Kept[0].Server.Rack, agg.Containers(), nil
}

// allocsPerAdvance returns the heap objects one Advance allocates at
// GOMAXPROCS maxprocs: the runtime/metrics delta over a world's 3000-step
// background loop, with nothing else running (the allocation counter is
// process-wide). The tick fan-out width is fixed when the world is built.
func allocsPerAdvance(seed int64, maxprocs int) (float64, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(maxprocs))
	dc, rack, _, err := fig3World(seed, nil)
	if err != nil {
		return 0, err
	}
	rt0 := readRuntime()
	for t := 0; t < 3000; t++ {
		dc.Clock.Advance(1)
		rack.Power()
	}
	return allocsSince(rt0, readRuntime()) / 3000, nil
}

func (st *fig3Stats) ticking() time.Duration {
	if st == nil {
		return 0
	}
	return st.marks.ticking
}

func (f *fig3Campaign) measure(until time.Time, tr *tracer) *window {
	var st *fig3Stats
	if tr != nil {
		st = &fig3Stats{}
	}
	w := &window{notes: map[string]any{}}
	start, cpu0 := time.Now(), processCPU()
	for seed := f.base; ; seed++ {
		t0 := time.Now()
		res, err := fig3Replica(seed, tr, st)
		w.attempted++
		if err != nil {
			w.failed++
			w.notes["error"] = err.Error()
		} else {
			w.latMS = append(w.latMS, float64(time.Since(t0))/1e6)
			if f.first == nil {
				f.first, f.firstSeed = res, seed
			}
		}
		if time.Now().After(until) {
			break
		}
	}
	// The CPU time of the seeds alone: the traced run measures allocations
	// per Advance below, after the window.
	cpuS := processCPU() - cpu0
	w.elapsed = time.Since(start)
	w.throughput = float64(w.attempted-w.failed) / w.elapsed.Seconds()
	if done := w.attempted - w.failed; done > 0 {
		w.cpuMS = cpuS * 1e3 / float64(done)
	}
	w.notes["seeds"] = w.attempted
	if tr == nil {
		return w
	}

	agg := tr.byName()
	seedTime := agg["fig3.seed"].Total
	campaigns := agg["attack.synergistic"].Total + agg["attack.periodic"].Total
	w.layers = map[string]float64{
		"cloud.build_ms":    msPer(agg, "cloud.build"),
		"cloud.snapshot_ms": msPer(agg, "cloud.snapshot"),
		"cloud.restore_ms":  msPer(agg, "cloud.restore"),
	}
	if st.campaignsTimed > 0 {
		w.layers["attack.campaign_self_ms"] = float64(campaigns-st.campaignTick) / float64(st.campaignsTimed) / 1e6
	}
	if st.marks.ticking > 0 {
		w.layers["simclock.advance_per_s"] = float64(st.marks.advances) / st.marks.ticking.Seconds()
	}
	if seedTime > 0 {
		w.layers["simclock.shard_phase_share"] = float64(st.marks.ticking) / float64(seedTime)
	}
	// The CLIs tick at GOMAXPROCS = nproc, where the fan-out allocates;
	// the 1-P figure beside it is the serial path the timed window runs.
	if a, err := allocsPerAdvance(f.base, runtime.NumCPU()); err == nil {
		w.layers["simclock.allocs_per_advance"] = a
	}
	if a, err := allocsPerAdvance(f.base, 1); err == nil {
		w.notes["allocs_per_advance_1p"] = a
	}
	w.notes["advances"] = st.marks.advances
	return w
}

// verify checks the replica against the experiments package: at seed 1362
// it must reproduce every field of experiments.Fig3, over seeds 1360–1364
// the win/tie statistics of experiments.Fig3Sweep(5), and the first timed
// seed must give the same result when run again.
func (f *fig3Campaign) verify(w *window) (attempted, failed int) {
	check := func(name string, ok bool) {
		attempted++
		if !ok {
			failed++
			w.notes["failed_check_"+name] = true
		}
	}

	want, err := experiments.Fig3()
	check("fig3_reference", err == nil)
	sweep, err := experiments.Fig3Sweep(5)
	check("fig3sweep_reference", err == nil)

	got := &experiments.Fig3SweepResult{Seeds: 5}
	var deltaSum, trialSum, costSum float64
	for seed := int64(1360); seed < 1365; seed++ {
		r, err := fig3Replica(seed, nil, nil)
		check("replica_"+strconv.FormatInt(seed, 10), err == nil)
		if err != nil {
			continue
		}
		if seed == 1362 && want != nil {
			check("fig3_seed1362", reflect.DeepEqual(r, want))
		}
		// The reduction of experiments.Fig3Sweep, in seed order.
		d := r.Synergistic.PeakW - r.Periodic.PeakW
		deltaSum += d
		tie := r.Periodic.PeakW * 0.005
		switch {
		case d > tie:
			got.SynWins++
		case d >= -tie:
			got.Ties++
		}
		if r.Synergistic.Trials > 0 {
			trialSum += float64(r.Periodic.Trials) / float64(r.Synergistic.Trials)
		}
		if r.Synergistic.AttackCoreSeconds > 0 {
			costSum += r.Periodic.AttackCoreSeconds / r.Synergistic.AttackCoreSeconds
		}
	}
	got.MeanPeakDeltaW = deltaSum / 5
	got.MeanTrialRatio = trialSum / 5
	got.MeanCostRatio = costSum / 5
	if sweep != nil {
		check("fig3sweep_1360_1364", reflect.DeepEqual(got, sweep))
	}
	check("fig3sweep_2_wins_2_ties", got.SynWins == 2 && got.Ties == 2)
	w.notes["sweep_wins"], w.notes["sweep_ties"] = got.SynWins, got.Ties

	if f.first != nil {
		again, err := fig3Replica(f.firstSeed, nil, nil)
		check("timed_seed_repeats", err == nil && reflect.DeepEqual(again, f.first))
	}
	return attempted, failed
}
