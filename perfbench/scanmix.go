package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/service"
)

// scanMix is a closed loop of two clients submitting scans to an
// in-process leaksd handler over the /v1 routes. Each client submits,
// waits for the job's terminal event on Scheduler.Subscribe, and fetches
// the served job. Client 0 also sends fleet scans to the node's cluster
// coordinator, which shards them over two in-process workers.
//
// The key space is larger than the result store (128 entries), the
// session pool (16) and the experiments world pool (32 worlds), so every
// one of them evicts or overflows during a run.
type scanMix struct {
	seed  int64
	sched *service.Scheduler
	coord *cluster.Coordinator
	cmet  *cluster.Metrics
	h     http.Handler

	// done counts the operations of the window; the client that completes
	// operation memAtOps reads the peak RSS into memMB.
	done  atomic.Int64
	memMB float64

	mu       sync.Mutex
	rendered map[string][32]byte // dedup key → hash of the served Rendered bytes
	samples  map[string]*sampled // verification slot → first served scan
	fleets   []fleetSample       // first served fleet scans
	mismatch map[string]bool     // dedup keys that served different bytes
}

type sampled struct {
	req service.ScanRequest
	res service.ScanResult
}

type fleetSample struct {
	spec    cluster.Spec
	leaking []int
}

// scanOp is one drawn operation.
type scanOp struct {
	kind string // inspect, table1, matrix, cluster
	slot string // verification slot (first scan of each shape is kept)
	req  service.ScanRequest
	spec cluster.Spec
}

const (
	hotSeeds      = 24 // seeds that repeat; 11 targets × 24 seeds exceed every cache
	fleetSize     = 16
	fleetShard    = 4
	storeCap      = 128
	sessionCap    = 16
	clientsPerMix = 2
	// memAtOps is the amount of work after which mem_peak_mb is read. The
	// scheduler keeps every job, so memory grows with the scans done; read
	// at a fixed count, it does not follow the scan rate. About 18 s into
	// a run at one P (280 scans/s).
	memAtOps = 5000
)

func newScanMix(seed int64) (harness, error) {
	sched := service.New(service.Config{StoreCap: storeCap, SessionCap: sessionCap}, nil)
	sched.Start()
	cmet := cluster.NewMetrics(sched.Metrics().Registry)
	w1 := cluster.NewWorker("w1", cluster.NewLocalWorlds(2))
	w2 := cluster.NewWorker("w2", cluster.NewLocalWorlds(2))
	coord := cluster.NewCoordinator(cluster.Config{ShardSize: fleetShard},
		cluster.NewInProc(w1, w2), []string{"w1", "w2"}, cmet)
	coord.Start()
	h := service.NewHandler(service.APIConfig{Scheduler: sched, Cluster: cluster.NewCoordinatorNode(coord)})
	return &scanMix{
		seed: seed, sched: sched, coord: coord, cmet: cmet, h: h,
		rendered: make(map[string][32]byte),
		samples:  make(map[string]*sampled),
		mismatch: make(map[string]bool),
	}, nil
}

func (m *scanMix) close() {
	m.coord.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = m.sched.Shutdown(ctx) // a drain timeout only cancels scans nobody waits for
}

// opStream draws client c's operations from the workload seed.
type opStream struct {
	rng    *rand.Rand
	client int
	seed   int64
	cold   int64
	tick   float64
}

func (s *opStream) hotSeed() int64 {
	u := s.rng.Float64()
	return s.seed*1000 + 1 + int64(float64(hotSeeds)*u*u) // skewed: low indices are hot
}

func (s *opStream) next() scanOp {
	providers, runtimes := service.ProviderNames(), service.RuntimeNames()
	target := func(req *service.ScanRequest) string {
		i := s.rng.Intn(len(providers) + len(runtimes))
		if i < len(providers) {
			req.Provider = providers[i]
			return "provider"
		}
		req.Runtime = runtimes[i-len(providers)]
		return "runtime"
	}
	u := s.rng.Float64()
	if s.client != 0 {
		u = 0.04 + 0.96*u // only client 0 sends fleet scans, so fleet ticks only grow
	}
	switch {
	case u < 0.04:
		s.tick += 10
		provider := "local"
		if s.rng.Intn(2) == 1 {
			provider = "cc1"
		}
		return scanOp{kind: "cluster", slot: "cluster", spec: cluster.Spec{
			Provider: provider, Containers: fleetSize, Tick: s.tick}}
	case u < 0.08:
		return scanOp{kind: "table1", slot: "table1",
			req: service.ScanRequest{Kind: service.KindTable1, Seed: s.hotSeed()}}
	case u < 0.12:
		return scanOp{kind: "matrix", slot: "matrix",
			req: service.ScanRequest{Kind: service.KindMatrix, Seed: s.hotSeed()}}
	case u < 0.18:
		req := service.ScanRequest{Kind: service.KindInspect, Seed: s.hotSeed(),
			ChaosRate: 0.02, ChaosSeed: 1 + int64(s.rng.Intn(4))}
		req.Provider = providers[s.rng.Intn(len(providers))]
		return scanOp{kind: "inspect", slot: "inspect-chaos", req: req}
	case u < 0.30:
		s.cold++
		req := service.ScanRequest{Kind: service.KindInspect,
			Seed: s.seed*1_000_000 + int64(s.client)*100_000 + s.cold}
		return scanOp{kind: "inspect", slot: "inspect-cold-" + target(&req), req: req}
	default:
		req := service.ScanRequest{Kind: service.KindInspect, Seed: s.hotSeed()}
		return scanOp{kind: "inspect", slot: "inspect-" + target(&req), req: req}
	}
}

// clientOut is one client's share of a window.
type clientOut struct {
	attempted, failed, rejected, fallbacks int
	latMS                                  []float64
	queueMS, runMS, clusterMS              []float64
	executed                               int // scans that ran (not served from the store)
	errs                                   []string
}

func (m *scanMix) measure(until time.Time, tr *tracer) *window {
	var before scanCounters
	if tr != nil {
		before = m.counters()
	}
	poll := newEnginePoller(m.sched, tr != nil)

	outs := make([]clientOut, clientsPerMix)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clientsPerMix; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			s := &opStream{rng: rand.New(rand.NewSource(m.seed*7919 + int64(c))), client: c,
				seed: m.seed, tick: cluster.DefaultTick}
			m.client(c, s, until, tr, &outs[c])
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	engine := poll.stop()

	w := &window{elapsed: elapsed, memMB: m.memMB, notes: map[string]any{}}
	w.notes["mem_at_ops"] = min(m.done.Load(), memAtOps)
	var all clientOut
	for _, o := range outs {
		all.attempted += o.attempted
		all.failed += o.failed
		all.rejected += o.rejected
		all.fallbacks += o.fallbacks
		all.executed += o.executed
		all.latMS = append(all.latMS, o.latMS...)
		all.queueMS = append(all.queueMS, o.queueMS...)
		all.runMS = append(all.runMS, o.runMS...)
		all.clusterMS = append(all.clusterMS, o.clusterMS...)
		all.errs = append(all.errs, o.errs...)
	}
	w.attempted, w.failed, w.latMS = all.attempted, all.failed, all.latMS
	w.throughput = float64(all.attempted-all.failed) / elapsed.Seconds()
	w.notes["rejected"] = all.rejected
	w.notes["event_fallbacks"] = all.fallbacks
	w.notes["executed_scans"] = all.executed
	w.notes["fleet_scans"] = len(all.clusterMS)
	if len(all.errs) > 0 {
		w.notes["errors"] = all.errs[:min(len(all.errs), 5)]
	}
	if tr == nil {
		return w
	}

	after := m.counters()
	d := after.sub(before)
	w.layers = map[string]float64{
		"service.queue_wait_ms": mean(all.queueMS),
		"service.run_ms":        mean(all.runMS),
		"service.queue_rejects": d.rejects,
		"cluster.scan_ms":       mean(all.clusterMS),
		"cluster.shard_ms":      histQuantile(before.shardHist, after.shardHist, 0.5) * 1e3,
		"cluster.requeues":      d.requeues,
	}
	if submits := d.storeHits + d.storeMisses; submits > 0 {
		w.layers["service.dedup_hit_ratio"] = d.storeHits / submits
	}
	if lookups := d.sessionHits + d.sessionMisses; lookups > 0 {
		w.layers["service.session_hit_ratio"] = d.sessionHits / lookups
	}
	if d.sessionMisses > 0 {
		w.layers["experiments.restores_per_build"] = d.restores / d.sessionMisses
	}
	if n := engine.findingHits + engine.findingMisses; n > 0 {
		w.layers["engine.finding_hit_ratio"] = engine.findingHits / n
	}
	if all.executed > 0 {
		w.layers["engine.host_renders_per_scan"] = engine.hostRenders / float64(all.executed)
	}
	return w
}

// client runs one closed-loop client until the deadline.
func (m *scanMix) client(c int, s *opStream, until time.Time, tr *tracer, out *clientOut) {
	events, cancel := m.sched.Subscribe()
	defer cancel()
	for n := 0; time.Now().Before(until); n++ {
		op := s.next()
		// Events of earlier jobs cannot belong to the next one.
		for drained := false; !drained; {
			select {
			case _, ok := <-events:
				drained = !ok
			default:
				drained = true
			}
		}
		id := "c" + strconv.Itoa(c) + "-" + strconv.Itoa(n)
		out.attempted++
		var err error
		if op.kind == "cluster" {
			err = m.fleetScan(op, id, tr, out)
		} else {
			err = m.scan(op, id, events, tr, out)
		}
		if err != nil {
			out.failed++
			if len(out.errs) < 5 {
				out.errs = append(out.errs, err.Error())
			}
		}
		if m.done.Add(1) == memAtOps {
			m.memMB = peakRSSMB()
		}
	}
}

// scan submits one scan, waits for it and fetches the served job.
func (m *scanMix) scan(op scanOp, id string, events <-chan service.Event, tr *tracer, out *clientOut) error {
	body, err := json.Marshal(op.req)
	if err != nil {
		return err
	}
	t0 := time.Now()
	root := tr.begin("scan."+op.kind, id, -1)
	sp := tr.begin("http.post_scan", id, root)
	rec := httptest.NewRecorder()
	m.h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/scans", bytes.NewReader(body)))
	tr.end(sp)
	switch rec.Code {
	case http.StatusOK, http.StatusAccepted:
	case http.StatusTooManyRequests:
		out.rejected++
		tr.end(root)
		return fmt.Errorf("scan rejected: %s", strings.TrimSpace(rec.Body.String()))
	default:
		tr.end(root)
		return fmt.Errorf("POST /v1/scans: %d %s", rec.Code, strings.TrimSpace(rec.Body.String()))
	}
	var job service.Job
	if err := json.Unmarshal(rec.Body.Bytes(), &job); err != nil {
		tr.end(root)
		return fmt.Errorf("POST /v1/scans: %w", err)
	}
	if rec.Code == http.StatusAccepted {
		sp = tr.begin("service.wait", id, root)
		fallback := m.wait(job.ID, events)
		tr.end(sp)
		if fallback {
			out.fallbacks++
		}
	}
	sp = tr.begin("http.get_scan", id, root)
	rec = httptest.NewRecorder()
	m.h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/scans/"+job.ID, nil))
	tr.end(sp)
	lat := time.Since(t0)
	tr.end(root)
	if rec.Code != http.StatusOK {
		return fmt.Errorf("GET /v1/scans/%s: %d", job.ID, rec.Code)
	}
	var served service.Job
	if err := json.Unmarshal(rec.Body.Bytes(), &served); err != nil {
		return fmt.Errorf("GET /v1/scans/%s: %w", job.ID, err)
	}
	if served.Status != service.StatusDone || served.Result == nil || served.Result.Rendered == "" ||
		len(served.Result.Verdicts) == 0 {
		return fmt.Errorf("scan %s (%s) served status %s without verdicts: %s", job.ID, op.slot, served.Status, served.Error)
	}
	out.latMS = append(out.latMS, float64(lat)/1e6)
	if !served.CacheHit {
		out.executed++
		out.queueMS = append(out.queueMS, float64(served.StartedAt.Sub(served.SubmittedAt))/1e6)
		out.runMS = append(out.runMS, float64(served.FinishedAt.Sub(served.StartedAt))/1e6)
	}
	return m.remember(op, served.Result)
}

// wait blocks until the job's terminal event arrives. The hub drops
// events for a full subscriber, so a slow timer re-reads the job as a
// safety net; it reports whether that net was needed.
func (m *scanMix) wait(id string, events <-chan service.Event) (fallback bool) {
	t := time.NewTimer(2 * time.Second)
	defer t.Stop()
	for {
		select {
		case ev, ok := <-events:
			if !ok {
				return true
			}
			if ev.JobID == id && (ev.Type == service.EventScanDone || ev.Type == service.EventScanFailed) {
				return false
			}
		case <-t.C:
			if j, ok := m.sched.JobByID(id); ok && j.Terminal() {
				return true
			}
			t.Reset(2 * time.Second)
		}
	}
}

// remember checks that a repeated key serves the same bytes and keeps the
// first scan of every shape for verification.
func (m *scanMix) remember(op scanOp, res *service.ScanResult) error {
	key := op.req.Key()
	sum := sha256.Sum256([]byte(res.Rendered))
	m.mu.Lock()
	defer m.mu.Unlock()
	if prev, ok := m.rendered[key]; ok && prev != sum {
		m.mismatch[key] = true
		return fmt.Errorf("key %s served different bytes on a repeat", key)
	}
	m.rendered[key] = sum
	if _, ok := m.samples[op.slot]; !ok {
		m.samples[op.slot] = &sampled{req: op.req, res: *res}
	}
	return nil
}

// fleetResponse is the part of the POST /v1/cluster/scans envelope the
// benchmark reads.
type fleetResponse struct {
	Partial         bool                  `json:"partial"`
	DurationSeconds float64               `json:"duration_seconds"`
	Leaking         []int                 `json:"leaking"`
	Shards          []cluster.ShardStatus `json:"shards"`
}

// fleetScan sends one partitioned fleet scan to the coordinator.
func (m *scanMix) fleetScan(op scanOp, id string, tr *tracer, out *clientOut) error {
	body, err := json.Marshal(op.spec)
	if err != nil {
		return err
	}
	t0 := time.Now()
	sp := tr.begin("cluster.scan", id, -1)
	rec := httptest.NewRecorder()
	m.h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/cluster/scans", bytes.NewReader(body)))
	lat := time.Since(t0)
	tr.end(sp)
	if rec.Code != http.StatusOK {
		return fmt.Errorf("POST /v1/cluster/scans: %d %s", rec.Code, strings.TrimSpace(rec.Body.String()))
	}
	var res fleetResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		return fmt.Errorf("POST /v1/cluster/scans: %w", err)
	}
	if res.Partial || len(res.Leaking) != op.spec.Containers {
		return fmt.Errorf("fleet scan partial=%v with %d of %d containers", res.Partial, len(res.Leaking), op.spec.Containers)
	}
	for _, sh := range res.Shards {
		if sh.Status != cluster.ShardDone {
			return fmt.Errorf("fleet shard %d: %s %s", sh.Shard, sh.Status, sh.Error)
		}
	}
	out.latMS = append(out.latMS, float64(lat)/1e6)
	out.clusterMS = append(out.clusterMS, res.DurationSeconds*1e3)
	m.mu.Lock()
	if len(m.fleets) < 2 {
		m.fleets = append(m.fleets, fleetSample{spec: op.spec, leaking: res.Leaking})
	}
	m.mu.Unlock()
	return nil
}

// verify recomputes a fixed sample of the served scans with direct calls
// into internal/experiments (and a single-node cluster pass for fleet
// scans) on freshly built worlds, outside the timed window. Fresh builds
// keep the check independent of the process-wide world pool the service
// filled.
func (m *scanMix) verify(w *window) (attempted, failed int) {
	check := func(name string, ok bool) {
		attempted++
		if !ok {
			failed++
			w.notes["failed_check_"+name] = true
		}
	}
	check("repeated_keys_same_bytes", len(m.mismatch) == 0)
	w.notes["distinct_keys"] = len(m.rendered)

	experiments.SetSnapshots(false)
	defer experiments.SetSnapshots(true)
	ctx := context.Background()
	for _, slot := range []string{"inspect-provider", "inspect-runtime", "inspect-cold-provider",
		"inspect-chaos", "table1", "matrix"} {
		s, ok := m.samples[slot]
		if !ok {
			continue
		}
		req := s.req.Normalize()
		spec := chaos.Spec{}
		if req.ChaosRate > 0 {
			spec = chaos.Spec{Rate: req.ChaosRate, Seed: req.ChaosSeed}
		}
		switch req.Kind {
		case service.KindTable1:
			t, err := experiments.Table1Seeded(ctx, spec, req.Seed, 0)
			check(slot, err == nil && t.String() == s.res.Rendered)
		case service.KindMatrix:
			mx, err := experiments.MatrixSweepSeeded(ctx, spec, req.Seed, 0)
			check(slot, err == nil && mx.String() == s.res.Rendered)
		case service.KindInspect:
			var ins experiments.CloudInspection
			var err error
			if req.Runtime != "" {
				p, _ := service.RuntimeByName(req.Runtime)
				var sess *experiments.InspectSession
				if sess, err = experiments.NewInspectSession(p, spec, req.Seed); err == nil {
					ins = sess.InspectChannels(core.MatrixChannels(), 0)
					sess.Close()
				}
			} else {
				p, _ := service.ProviderByName(req.Provider)
				ins, err = experiments.InspectProviderSeeded(p, spec, req.Seed)
			}
			check(slot, err == nil && reflect.DeepEqual(verdictCells(ins), s.res.Verdicts))
		}
	}
	for i, f := range m.fleets {
		findings, _, err := cluster.SingleNode(f.spec, 0)
		want := make([]int, len(findings))
		for c, fs := range findings {
			for _, fd := range fs {
				if fd.Status == core.Identical || fd.Status == core.Partial {
					want[c]++
				}
			}
		}
		check("fleet_"+strconv.Itoa(i), err == nil && reflect.DeepEqual(want, f.leaking))
	}
	return attempted, failed
}

// verdictCells flattens an inspection the way leaksd serves it.
func verdictCells(ins experiments.CloudInspection) []service.Verdict {
	var out []service.Verdict
	for _, rep := range ins.Reports {
		out = append(out, service.Verdict{Provider: ins.Provider, Channel: rep.Channel.Name,
			Availability: rep.Availability.String()})
	}
	return out
}

// scanCounters is a reading of the service and cluster counters.
type scanCounters struct {
	storeHits, storeMisses, rejects      float64
	sessionHits, sessionMisses, restores float64
	requeues                             float64
	shardHist                            map[float64]float64 // le → cumulative count
}

func (m *scanMix) counters() scanCounters {
	met := m.sched.Metrics()
	info := m.sched.EngineInfo()
	var buf bytes.Buffer
	_ = met.Registry.WritePrometheus(&buf) // writes to a bytes.Buffer cannot fail
	return scanCounters{
		storeHits:     met.CacheHits.With().Value(),
		storeMisses:   met.CacheMisses.With().Value(),
		rejects:       met.QueueRejects.With("full").Value() + met.QueueRejects.With("draining").Value(),
		sessionHits:   float64(info.SessionHits),
		sessionMisses: float64(info.SessionMisses),
		restores:      float64(info.SnapshotRestores),
		requeues:      m.cmet.Requeues.With().Value(),
		shardHist:     promBuckets(buf.Bytes(), "leaksd_cluster_shard_seconds_bucket"),
	}
}

func (a scanCounters) sub(b scanCounters) scanCounters {
	return scanCounters{
		storeHits: a.storeHits - b.storeHits, storeMisses: a.storeMisses - b.storeMisses,
		rejects:     a.rejects - b.rejects,
		sessionHits: a.sessionHits - b.sessionHits, sessionMisses: a.sessionMisses - b.sessionMisses,
		restores: a.restores - b.restores, requeues: a.requeues - b.requeues,
	}
}

// promBuckets reads the cumulative bucket counts of one histogram from a
// Prometheus text exposition.
func promBuckets(text []byte, family string) map[float64]float64 {
	out := make(map[float64]float64)
	sc := bufio.NewScanner(bytes.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, family+"{") {
			continue
		}
		i := strings.Index(line, `le="`)
		if i < 0 {
			continue
		}
		rest := line[i+4:]
		j := strings.IndexByte(rest, '"')
		if j < 0 {
			continue
		}
		le, err := strconv.ParseFloat(rest[:j], 64)
		if rest[:j] == "+Inf" {
			le, err = 1e308, nil
		}
		fields := strings.Fields(line)
		v, verr := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err == nil && verr == nil {
			out[le] += v
		}
	}
	return out
}

// histQuantile interpolates the q-quantile of the observations a
// histogram gained between two readings.
func histQuantile(before, after map[float64]float64, q float64) float64 {
	les := make([]float64, 0, len(after))
	for le := range after {
		les = append(les, le)
	}
	sort.Float64s(les)
	if len(les) == 0 {
		return 0
	}
	total := after[les[len(les)-1]] - before[les[len(les)-1]]
	if total <= 0 {
		return 0
	}
	rank := q * total
	prevLE, prevN := 0.0, 0.0
	for _, le := range les {
		n := after[le] - before[le]
		if n >= rank {
			if le >= 1e308 {
				return prevLE
			}
			if n == prevN {
				return le
			}
			return prevLE + (le-prevLE)*(rank-prevN)/(n-prevN)
		}
		prevLE, prevN = le, n
	}
	return prevLE
}

// enginePoller samples /v1/engine's counters while a traced window runs
// and sums their increases. The counters are sums over live sessions, so
// an eviction lowers them; the poller counts only increases.
type enginePoller struct {
	stopCh chan struct{}
	done   chan engineDelta
}

type engineDelta struct{ findingHits, findingMisses, hostRenders float64 }

func newEnginePoller(sched *service.Scheduler, on bool) *enginePoller {
	p := &enginePoller{stopCh: make(chan struct{}), done: make(chan engineDelta, 1)}
	if !on {
		p.done <- engineDelta{}
		return p
	}
	go func() {
		var d engineDelta
		prev := sched.EngineInfo().Stats
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		sample := func() {
			cur := sched.EngineInfo().Stats
			d.findingHits += posDelta(cur.FindingHits, prev.FindingHits)
			d.findingMisses += posDelta(cur.FindingMisses, prev.FindingMisses)
			d.hostRenders += posDelta(cur.HostRenders, prev.HostRenders)
			prev = cur
		}
		for {
			select {
			case <-t.C:
				sample()
			case <-p.stopCh:
				sample()
				p.done <- d
				return
			}
		}
	}()
	return p
}

func (p *enginePoller) stop() engineDelta {
	close(p.stopCh)
	return <-p.done
}

func posDelta(cur, prev uint64) float64 {
	if cur > prev {
		return float64(cur - prev)
	}
	return 0
}
