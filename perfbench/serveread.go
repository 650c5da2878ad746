package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/service"
	"repro/internal/telemetry"
)

// serveRead is an open loop of /v1 reads at fixed rates beside a low
// fixed rate of scan submissions. One read generator sends each request
// at its due time and times it from that due time, so a stall delays the
// requests behind it and shows in their latency (internal/loadgen times
// from the send instead). The reads are measured at a reference rate,
// then back to back for the read capacity, then on a ladder of rates to
// find the highest one whose p90 stays within readLimit with no growing
// backlog.
type serveRead struct {
	seed   int64
	sched  *service.Scheduler
	cached http.Handler // the leaksd handler, response cache on
	plain  http.Handler // the same scheduler with DisableResponseCache
	mix    []readEndpoint
	weight int
	warm   []service.ScanRequest
}

// readEndpoint is one entry of the read mix.
type readEndpoint struct {
	path   string
	weight int
	req    *http.Request
	etag   string             // last ETag served on this path
	inm    []string           // reused If-None-Match header value
	misses *telemetry.Counter // the endpoint's respcache miss counter
}

const (
	refRate        = 100000.0               // reads/s of the reference measurement: the rate of leaksload's open-loop example
	ladderBase     = 10000.0                // first rung, reads/s
	ladderStep     = 1.5                    // each rung is this much faster
	ladderRungs    = 12                     // rungs in the walk up
	bisections     = 3                      // refinements between the last pass and the first fail
	refShare       = 35                     // percent of the window at the reference rate
	capShare       = 50                     // percent of the window reading back to back
	rounds         = 15                     // reference and back-to-back phases alternate this often
	readLimit      = time.Millisecond       // p90 latency limit of a passing rung
	writeInterval  = 250 * time.Millisecond // scan submissions beside the reads
	revalidateRate = 0.25                   // share of reads sent with If-None-Match
	bodyChecks     = 16                     // cached vs uncached body comparisons after every phase
	minBodyChecks  = 200                    // comparisons a run makes in all
)

func newServeRead(seed int64) (harness, error) {
	sched := service.New(service.Config{}, nil)
	sched.Start()
	s := &serveRead{
		seed:   seed,
		sched:  sched,
		cached: service.NewHandler(service.APIConfig{Scheduler: sched}),
		plain:  service.NewHandler(service.APIConfig{Scheduler: sched, DisableResponseCache: true}),
	}
	// The leaksload default mix plus /v1/matrix and filtered and
	// paginated variants.
	met := sched.Metrics()
	for _, e := range []struct {
		path, label string
		weight      int
	}{
		{"/v1/results", "results", 6},
		{"/v1/scans", "scans", 2},
		{"/v1/channels", "channels", 1},
		{"/v1/providers", "providers", 1},
		{"/v1/engine", "engine", 1},
		{"/v1/version", "version", 1},
		{"/v1/matrix", "matrix", 1},
		{"/v1/results?provider=cc1", "results", 1},
		{"/v1/results?verdict=available&limit=3", "results", 1},
		{"/v1/scans?limit=5&offset=2", "scans", 1},
		{"/v1/matrix?runtime=gvisor", "matrix", 1},
	} {
		s.mix = append(s.mix, readEndpoint{path: e.path, weight: e.weight,
			req: httptest.NewRequest(http.MethodGet, e.path, nil), inm: []string{""},
			misses: met.HTTPCacheMisses.With(e.label)})
		s.weight += e.weight
	}

	// Warm-up scans fill the store: every provider and runtime target, a
	// Table I and a matrix scan, all at the default seed.
	for _, p := range service.ProviderNames() {
		s.warm = append(s.warm, service.ScanRequest{Kind: service.KindInspect, Provider: p})
	}
	for _, r := range service.RuntimeNames() {
		s.warm = append(s.warm, service.ScanRequest{Kind: service.KindInspect, Runtime: r})
	}
	s.warm = append(s.warm, service.ScanRequest{Kind: service.KindTable1},
		service.ScanRequest{Kind: service.KindMatrix})
	var ids []string
	for _, req := range s.warm {
		job, err := sched.Submit(req)
		if err != nil {
			s.close()
			return nil, fmt.Errorf("warm-up scan: %w", err)
		}
		ids = append(ids, job.ID)
	}
	if err := waitJobs(sched, ids, time.Minute); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *serveRead) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = s.sched.Shutdown(ctx) // a drain timeout only cancels scans nobody waits for
}

// waitJobs waits until every job is done.
func waitJobs(sched *service.Scheduler, ids []string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for _, id := range ids {
		for {
			j, ok := sched.JobByID(id)
			if !ok {
				return fmt.Errorf("job %s vanished", id)
			}
			if j.Terminal() {
				if j.Status != service.StatusDone {
					return fmt.Errorf("job %s: %s %s", id, j.Status, j.Error)
				}
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("job %s still %s after %v", id, j.Status, timeout)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	return nil
}

// nullWriter discards the body and keeps the status; its header map is
// reused across requests like a keep-alive connection's.
type nullWriter struct {
	h    http.Header
	code int
}

func (w *nullWriter) Header() http.Header         { return w.h }
func (w *nullWriter) WriteHeader(code int)        { w.code = code }
func (w *nullWriter) Write(p []byte) (int, error) { return len(p), nil }

// phase is the outcome of reading at one rate.
type phase struct {
	sent      int
	failed    int
	truncated bool // the generator fell so far behind that the phase was cut
	latUS     []float64
	lateUS    []float64
	// Traced only: per-request service classification.
	hits, misses, notModified int
	hitUS, missUS             float64 // summed service time
}

// pass reports whether the phase kept up: its p90 latency within
// readLimit, and no backlog left at its end (the median lateness of its
// last tenth of requests within readLimit). The p99 is not the criterion:
// on a shared 2-vCPU host the scheduler and the hypervisor stall a
// spinning thread for 1–3% of the wall time, up to several
// milliseconds at a time, so a 1 ms p99 fails at every rate.
// It sorts latUS in place.
func (p *phase) pass() bool {
	sort.Float64s(p.latUS)
	if p.truncated || p.failed > 0 || len(p.latUS) == 0 {
		return false
	}
	limit := float64(readLimit / time.Microsecond)
	return quantile(p.latUS, 0.9) <= limit && p.backlogUS() <= limit
}

// add pools q's reads, latencies and classification into p.
func (p *phase) add(q *phase) {
	p.sent += q.sent
	p.failed += q.failed
	p.latUS = append(p.latUS, q.latUS...)
	p.lateUS = append(p.lateUS, q.lateUS...)
	p.hits += q.hits
	p.misses += q.misses
	p.notModified += q.notModified
	p.hitUS += q.hitUS
	p.missUS += q.missUS
}

// backlogUS is the median lateness of the last tenth of the requests.
func (p *phase) backlogUS() float64 {
	tail := p.lateUS[len(p.lateUS)-(len(p.lateUS)+9)/10:]
	return quantile(sortedCopy(tail), 0.5)
}

// reader draws the read sequence from the workload seed.
type reader struct {
	s   *serveRead
	rng *rand.Rand
	w   nullWriter
	// lat and lt are the latency and lateness buffers, sized for the
	// longest phase and written once up front, so the run's peak RSS does
	// not depend on how far up the ladder it climbed.
	lat []float64
	lt  []float64
}

func newReader(s *serveRead, maxReads int) *reader {
	r := &reader{s: s, rng: rand.New(rand.NewSource(s.seed*104729 + 1)), w: nullWriter{h: make(http.Header)},
		lat: make([]float64, maxReads), lt: make([]float64, maxReads)}
	for i := range r.lat {
		r.lat[i], r.lt[i] = 1, 1
	}
	return r
}

// one sends one read drawn from the mix and records its status in p. A
// share of reads revalidate with the ETag last served on their path; a
// 304 must answer exactly that ETag. With classify it also sorts the read
// into a response-cache hit or a cold render by the endpoint's miss
// counter. With timed it returns the send and response instants.
func (r *reader) one(p *phase, timed, classify bool) (sendAt, done time.Time) {
	e := &r.s.mix[r.pick()]
	sent := e.etag != "" && r.rng.Float64() < revalidateRate
	if sent {
		e.inm[0] = e.etag
		e.req.Header["If-None-Match"] = e.inm
	} else {
		delete(e.req.Header, "If-None-Match")
	}
	delete(r.w.h, "Etag")
	r.w.code = http.StatusOK
	var miss0 float64
	if classify {
		miss0 = e.misses.Value()
	}
	if timed {
		sendAt = time.Now()
	}
	r.s.cached.ServeHTTP(&r.w, e.req)
	if timed {
		done = time.Now()
	}
	p.sent++
	etag := ""
	if v := r.w.h["Etag"]; len(v) > 0 {
		etag = v[0]
	}
	switch r.w.code {
	case http.StatusOK:
		e.etag = etag
	case http.StatusNotModified:
		if !sent || etag != e.inm[0] {
			p.failed++
		}
		p.notModified++
	default:
		p.failed++
	}
	if classify {
		svc := float64(done.Sub(sendAt)) / 1e3
		if e.misses.Value() > miss0 {
			p.misses++
			p.missUS += svc
		} else {
			p.hits++
			p.hitUS += svc
		}
	}
	return sendAt, done
}

// run reads at rate for d. Each request is due at start + k/rate; it is
// sent when due (spinning, since the gaps are microseconds) and its
// latency runs from the due time to the response.
func (r *reader) run(rate float64, d time.Duration, classify bool) *phase {
	n := int(rate * d.Seconds())
	if n < 1 {
		n = 1
	}
	if cap(r.lat) < n {
		r.lat, r.lt = make([]float64, 0, n), make([]float64, 0, n)
	}
	p := &phase{latUS: r.lat[:0], lateUS: r.lt[:0]}
	interval := float64(time.Second) / rate
	start := time.Now()
	hardStop := start.Add(d + d/2 + 50*time.Millisecond)
	for k := 0; k < n; k++ {
		due := start.Add(time.Duration(float64(k) * interval))
		for now := time.Now(); now.Before(due); now = time.Now() {
			if gap := due.Sub(now); gap > 300*time.Microsecond {
				time.Sleep(gap - 200*time.Microsecond)
			}
		}
		sendAt, done := r.one(p, true, classify)
		p.latUS = append(p.latUS, float64(done.Sub(due))/1e3)
		p.lateUS = append(p.lateUS, float64(sendAt.Sub(due))/1e3)
		if done.After(hardStop) {
			p.truncated = true
			break
		}
	}
	return p
}

// saturate reads back to back for d and returns the reads per second.
// It reads the clock once per batch, not per read.
func (r *reader) saturate(d time.Duration) (*phase, float64) {
	p := &phase{}
	start := time.Now()
	end := start.Add(d)
	for {
		for i := 0; i < 64; i++ {
			r.one(p, false, false)
		}
		if now := time.Now(); now.After(end) {
			return p, float64(p.sent) / now.Sub(start).Seconds()
		}
	}
}

func (r *reader) pick() int {
	n := r.rng.Intn(r.s.weight)
	for i := range r.s.mix {
		if n < r.s.mix[i].weight {
			return i
		}
		n -= r.s.mix[i].weight
	}
	return len(r.s.mix) - 1
}

// writer submits scans at a low fixed rate until stopped: three repeats
// of warm-up keys (dedup hits that bump the jobs epoch) to one new seed
// (a real scan that bumps the results epoch).
type writer struct {
	s                  *serveRead
	sent, failed, news int
	ids                []string
	errs               []string
}

func (wr *writer) run(stop <-chan struct{}) {
	providers := service.ProviderNames()
	t := time.NewTicker(writeInterval)
	defer t.Stop()
	for j := 0; ; j++ {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		req := wr.s.warm[j%len(wr.s.warm)]
		if j%4 == 3 {
			req = service.ScanRequest{Kind: service.KindInspect, Provider: providers[j%len(providers)],
				Seed: wr.s.seed*1_000_000 + int64(j)}
			wr.news++
		}
		body, _ := json.Marshal(req) // a ScanRequest always marshals
		rec := httptest.NewRecorder()
		wr.s.cached.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/scans", bytes.NewReader(body)))
		wr.sent++
		var job service.Job
		if (rec.Code != http.StatusOK && rec.Code != http.StatusAccepted) || json.Unmarshal(rec.Body.Bytes(), &job) != nil {
			wr.failed++
			if len(wr.errs) < 5 {
				wr.errs = append(wr.errs, fmt.Sprintf("POST /v1/scans: %d %s", rec.Code, strings.TrimSpace(rec.Body.String())))
			}
			continue
		}
		wr.ids = append(wr.ids, job.ID)
	}
}

func (s *serveRead) measure(until time.Time, tr *tracer) *window {
	total := time.Until(until)
	refDur := total * refShare / 100
	capDur := total * capShare / 100
	rungDur := (total - refDur - capDur) / (ladderRungs + bisections)

	wr := &writer{s: s}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		wr.run(stop)
	}()

	topRate := ladderBase * math.Pow(ladderStep, ladderRungs-1)
	refReads := int(refRate*refDur.Seconds()) + rounds
	rd := newReader(s, int(math.Max(refRate*refDur.Seconds()/rounds, topRate*rungDur.Seconds()))+1)
	w := &window{notes: map[string]any{}}
	var checks, checksFailed, checksSkipped int
	// Between phases: compare bodies, then collect the garbage that made,
	// so no collection the benchmark caused runs into the next phase.
	afterPhase := func(p *phase) {
		w.attempted += p.sent
		w.failed += p.failed
		a, f, sk := s.compareBodies(rd.rng, bodyChecks)
		checks, checksFailed, checksSkipped = checks+a, checksFailed+f, checksSkipped+sk
		runtime.GC()
	}
	runtime.GC()

	// The reference rate and the back-to-back reads alternate in rounds
	// that span most of the run. The host's speed drifts over seconds, so
	// results pooled over the whole span move less from run to run than
	// those of one contiguous phase would.
	ref := &phase{latUS: make([]float64, 0, refReads), lateUS: make([]float64, 0, refReads)}
	var epochs uint64
	var allocs float64
	var capacity, cpuPerRead []float64
	start := time.Now()
	for i := 0; i < rounds; i++ {
		e0, rt0 := s.epochs(), readRuntime()
		sp := tr.begin("read.reference", fmt.Sprintf("reference-%d", i), -1)
		p := rd.run(refRate, refDur/rounds, tr != nil)
		tr.end(sp)
		allocs += allocsSince(rt0, readRuntime())
		epochs += s.epochs() - e0
		ref.add(p)
		afterPhase(p)

		sp = tr.begin("read.saturate", fmt.Sprintf("saturate-%d", i), -1)
		c0 := processCPU()
		p, rps := rd.saturate(capDur / rounds)
		cpuPerRead = append(cpuPerRead, (processCPU()-c0)*1e3/float64(p.sent))
		tr.end(sp)
		capacity = append(capacity, rps)
		afterPhase(p)
	}
	// Medians over the windows: one that a burst of cold renders or a
	// new-seed scan happened to land in does not move them.
	w.throughput = median(capacity)
	w.cpuMS = median(cpuPerRead)
	w.notes["capacity_windows_rps"] = capacity

	w.latMS = make([]float64, len(ref.latUS))
	for i, v := range ref.latUS {
		w.latMS[i] = v / 1e3
	}
	sort.Float64s(ref.lateUS)
	late := ref.lateUS
	w.notes["reference_rate"] = refRate
	w.notes["reference_reads"] = ref.sent
	w.notes["late_p50_us"] = quantile(late, 0.5)
	w.notes["late_p99_us"] = quantile(late, 0.99)
	w.notes["late_max_us"] = quantile(late, 1)
	sort.Float64s(ref.latUS)
	latq := ref.latUS
	w.notes["reference_latency_us"] = map[string]float64{"p50": quantile(latq, 0.5), "p75": quantile(latq, 0.75),
		"p90": quantile(latq, 0.9), "p95": quantile(latq, 0.95), "p99": quantile(latq, 0.99)}
	if tr != nil {
		reads := float64(ref.sent)
		w.layers = map[string]float64{
			"respcache.hit_ratio":          float64(ref.hits) / reads,
			"respcache.not_modified_ratio": float64(ref.notModified) / reads,
			"service.invalidations_per_s":  float64(epochs) / refDur.Seconds(),
			"http.allocs_per_req":          allocs / reads,
			"loadgen.late_p99_us":          quantile(late, 0.99),
		}
		if ref.hits > 0 {
			w.layers["respcache.hit_us"] = ref.hitUS / float64(ref.hits)
		}
		if ref.misses > 0 {
			w.layers["respcache.miss_us"] = ref.missUS / float64(ref.misses)
		}
	}

	// The rate ladder: walk up to the first failing rung, then bisect
	// between the last passing rate and it.
	var rungs []map[string]any
	try := func(rate float64) bool {
		sp := tr.begin("read.rung", fmt.Sprintf("rung-%.0f", rate), -1)
		p := rd.run(rate, rungDur, false)
		tr.end(sp)
		ok := p.pass()
		rungs = append(rungs, map[string]any{"rate": rate, "pass": ok, "p90_us": quantile(p.latUS, 0.9),
			"p99_us": quantile(p.latUS, 0.99), "backlog_us": p.backlogUS()})
		afterPhase(p)
		return ok
	}
	lo, hi := 0.0, 0.0
	for i := 0; i < ladderRungs; i++ {
		rate := ladderBase * math.Pow(ladderStep, float64(i))
		if !try(rate) {
			hi = rate
			break
		}
		lo = rate
	}
	if hi > 0 && lo > 0 {
		for i := 0; i < bisections; i++ {
			mid := math.Sqrt(lo * hi)
			if try(mid) {
				lo = mid
			} else {
				hi = mid
			}
		}
	}
	w.elapsed = time.Since(start)
	close(stop)
	wg.Wait()

	w.notes["ladder_max_rps"] = lo
	w.notes["rungs"] = rungs
	w.notes["writes"] = wr.sent
	w.notes["new_seed_writes"] = wr.news
	w.notes["body_checks"] = checks
	w.notes["body_checks_skipped"] = checksSkipped
	w.attempted += wr.sent + checks
	w.failed += wr.failed + checksFailed
	if len(wr.errs) > 0 {
		w.notes["write_errors"] = wr.errs
	}
	if err := waitJobs(s.sched, wr.ids, time.Minute); err != nil {
		w.failed++
		w.notes["write_error"] = err.Error()
	}
	return w
}

// epochs sums the serving epochs; each bump invalidates cached bodies.
func (s *serveRead) epochs() uint64 {
	return s.sched.JobsEpoch() + s.sched.ResultsEpoch() + s.sched.EngineEpoch()
}

// compareBodies sends n reads drawn from the mix to both the cached and
// the uncached handler and compares the 200 bodies. A pair is compared
// only when no epoch moved and no scan ran between the two renders, so
// both saw the same state; other pairs are skipped.
func (s *serveRead) compareBodies(rng *rand.Rand, n int) (attempted, failed, skipped int) {
	for i := 0; i < n; i++ {
		e := s.mix[rng.Intn(len(s.mix))]
		before := s.epochs()
		running := s.sched.RunningScans()
		a := httptest.NewRecorder()
		s.cached.ServeHTTP(a, httptest.NewRequest(http.MethodGet, e.path, nil))
		b := httptest.NewRecorder()
		s.plain.ServeHTTP(b, httptest.NewRequest(http.MethodGet, e.path, nil))
		if s.epochs() != before || running != 0 || s.sched.RunningScans() != 0 {
			skipped++
			continue
		}
		attempted++
		if a.Code != http.StatusOK || b.Code != http.StatusOK || !bytes.Equal(a.Body.Bytes(), b.Body.Bytes()) {
			failed++
		}
	}
	return attempted, failed, skipped
}

// verify tops the cached-versus-uncached body comparisons made between
// the phases up to minBodyChecks, now that the writer has stopped. The 304
// checks ran inside the phases and are already in the window's counts.
func (s *serveRead) verify(w *window) (attempted, failed int) {
	done, _ := w.notes["body_checks"].(int)
	rng := rand.New(rand.NewSource(s.seed))
	for tries := 0; done+attempted < minBodyChecks && tries < 4*minBodyChecks; tries++ {
		a, f, _ := s.compareBodies(rng, 1)
		attempted, failed = attempted+a, failed+f
	}
	if done+attempted < minBodyChecks {
		w.notes["failed_check_too_few_body_checks"] = true
		failed++
	}
	w.notes["body_checks_after_run"] = attempted
	return attempted, failed
}
