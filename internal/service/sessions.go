package service

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/chaos"
	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/experiments"
)

// sessionPool caches engine-backed experiment sessions across scheduler
// jobs, so a recurring scan's second tick reuses the incremental engine
// (and its render caches) instead of rebuilding the world and re-reading
// every pseudo-file. Sessions are only used for chaos-free requests:
//
//   - a chaos world's fault streams advance on every read, so re-running a
//     scan over a reused world would not be byte-identical to a cold run —
//     chaos requests must pay full cost, and the engine bypasses its caches
//     under fault injection anyway;
//   - a chaos-free session world is frozen at the canonical observation
//     instant, so every pass over it is byte-identical to a cold scan (the
//     engine's invariant), and repeated passes are pure cache hits.
//
// The pool is bounded: beyond cap, the least-recently-used session is
// evicted (seed-varied campaigns stream through without hoarding worlds),
// and its world goes back to the experiments world pool once any pass on
// it has ended, so the next session for that key restores the world
// instead of rebuilding it.
type sessionPool struct {
	mu      sync.Mutex
	cap     int
	tick    uint64 // LRU clock
	entries map[string]*sessionEntry
	hits    uint64 // session reuses
	misses  uint64 // session builds
}

// sessionEntry holds one pooled session: an inspection (insp, or err when
// its world failed to build) or a discovery sweep (disc).
type sessionEntry struct {
	mu   sync.Mutex // serializes passes over one session's world
	insp *experiments.InspectSession
	disc *experiments.DiscoverySession
	err  error
	// closed marks an evicted entry whose session was closed; a request
	// that looked the entry up before the eviction looks up again.
	// Guarded by mu.
	closed bool
	last   uint64 // LRU stamp, guarded by the pool's mu
}

// close closes the entry's session, returning its world to the world
// pool, after any pass on it has ended.
func (e *sessionEntry) close() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.closed = true
	if e.insp != nil {
		e.insp.Close()
	}
	if e.disc != nil {
		e.disc.Close()
	}
}

// defaultSessionCap bounds the pool. Table I alone needs six inspect
// sessions; 16 leaves room for a couple of seed-varied campaigns before
// LRU pressure kicks in.
const defaultSessionCap = 16

func newSessionPool(cap int) *sessionPool {
	if cap <= 0 {
		cap = defaultSessionCap
	}
	return &sessionPool{cap: cap, entries: make(map[string]*sessionEntry)}
}

// with runs pass on the pooled session for key, under the entry lock. On
// a miss, build fills in a new entry first (followers queue on its lock);
// an entry whose build failed is not kept. Sessions evicted to make room
// are closed before with returns, once their in-flight passes end.
func (p *sessionPool) with(key string, build, pass func(*sessionEntry)) {
	var evicted []*sessionEntry
	defer func() {
		for _, e := range evicted {
			e.close()
		}
	}()
	for {
		p.mu.Lock()
		e, ok := p.entries[key]
		if ok {
			p.hits++
		} else {
			p.misses++
			e = &sessionEntry{}
			e.mu.Lock() // hold until built; followers queue on the entry lock
			p.entries[key] = e
		}
		e.last = p.tickLocked()
		if !ok {
			evicted = append(evicted, p.evictLocked()...)
		}
		p.mu.Unlock()

		if ok {
			e.mu.Lock()
		} else {
			build(e)
			if e.err != nil {
				p.mu.Lock()
				if p.entries[key] == e {
					delete(p.entries, key) // do not cache a broken world
				}
				p.mu.Unlock()
			}
		}
		if e.closed {
			e.mu.Unlock()
			continue // evicted and closed since the lookup
		}
		pass(e)
		e.mu.Unlock()
		return
	}
}

// inspect runs one provider inspection through a pooled session. The first
// request for a (provider, seed) pair builds the session (all engine cache
// misses — byte-identical to the one-shot path); later requests are served
// from the session's caches with zero re-renders.
func (p *sessionPool) inspect(prof cloud.ProviderProfile, seed int64, workers int) (experiments.CloudInspection, error) {
	return p.inspectChannels(prof, seed, workers, core.TableIChannels())
}

// inspectChannels is inspect with an explicit channel registry. The session
// (and its engine caches) is shared across channel sets — cross-validation
// is channel-set independent, RollUp is post-processing — so a Table I scan
// and a matrix scan of the same target reuse one world.
func (p *sessionPool) inspectChannels(prof cloud.ProviderProfile, seed int64, workers int, channels []core.Channel) (experiments.CloudInspection, error) {
	var (
		out experiments.CloudInspection
		err error
	)
	p.with(fmt.Sprintf("inspect\x00%s\x00%d", prof.Name, seed),
		func(e *sessionEntry) {
			e.insp, e.err = experiments.NewInspectSession(prof, chaos.Spec{}, seed)
		},
		func(e *sessionEntry) {
			if err = e.err; err == nil {
				out = e.insp.InspectChannels(channels, workers)
			}
		})
	return out, err
}

// table1 runs the full six-provider Table I sweep through pooled sessions,
// in profile order (the result slice order the renderer expects). Provider
// failures are folded into the per-provider Err field exactly like the
// one-shot sweep; the error return is non-nil only when every provider
// failed or ctx was cancelled mid-sweep.
func (p *sessionPool) table1(ctx context.Context, seed int64, workers int) (*experiments.Table1Result, error) {
	profiles := append([]cloud.ProviderProfile{cloud.LocalTestbed()}, cloud.CommercialClouds()...)
	ins := make([]experiments.CloudInspection, len(profiles))
	failed := 0
	var first error
	for i, prof := range profiles {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		in, err := p.inspect(prof, seed, workers)
		if err != nil {
			ins[i] = experiments.CloudInspection{Provider: prof.Name, Err: err}
			if first == nil {
				first = err
			}
			failed++
			continue
		}
		ins[i] = in
	}
	if failed == len(profiles) {
		return nil, fmt.Errorf("experiments: table 1: all %d provider inspections failed, first: %w",
			failed, first)
	}
	return &experiments.Table1Result{Inspections: ins}, nil
}

// matrix runs the runtime-aware sweep through pooled sessions, in matrix
// column order (CC1–CC5 then the runtime targets). The CC1–CC5 sessions
// are the same worlds table1 pools — a recurring matrix scan's cloud
// columns are engine cache hits after any Table I scan, and vice versa.
// Failures fold into per-target Err exactly like table1.
func (p *sessionPool) matrix(ctx context.Context, seed int64, workers int) (*experiments.MatrixResult, error) {
	targets := cloud.MatrixTargets()
	ins := make([]experiments.CloudInspection, len(targets))
	failed := 0
	var first error
	for i, prof := range targets {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		in, err := p.inspectChannels(prof, seed, workers, core.MatrixChannels())
		if err != nil {
			ins[i] = experiments.CloudInspection{Provider: prof.Name, Err: err}
			if first == nil {
				first = err
			}
			failed++
			continue
		}
		ins[i] = in
	}
	if failed == len(targets) {
		return nil, fmt.Errorf("experiments: matrix sweep: all %d target inspections failed, first: %w",
			failed, first)
	}
	return &experiments.MatrixResult{Inspections: ins}, nil
}

// discovery runs the systematic sweep through a pooled testbed session.
func (p *sessionPool) discovery(seed int64, workers int) *experiments.DiscoveryResult {
	var out *experiments.DiscoveryResult
	p.with(fmt.Sprintf("discover\x00%d", seed),
		func(e *sessionEntry) { e.disc = experiments.NewDiscoverySession(chaos.Spec{}, seed) },
		func(e *sessionEntry) { out = e.disc.Discover(workers) })
	return out
}

// tickLocked advances the LRU clock. Callers hold p.mu.
func (p *sessionPool) tickLocked() uint64 {
	p.tick++
	return p.tick
}

// evictLocked drops least-recently-used sessions until the pool fits its
// cap and returns them for the caller to close once it has released p.mu.
// Callers hold p.mu.
func (p *sessionPool) evictLocked() []*sessionEntry {
	var out []*sessionEntry
	for len(p.entries) > p.cap {
		var (
			oldest uint64 = ^uint64(0)
			victim string
		)
		for k, e := range p.entries {
			if e.last < oldest {
				oldest, victim = e.last, k
			}
		}
		out = append(out, p.entries[victim])
		delete(p.entries, victim)
	}
	return out
}

// EngineInfo is the aggregate engine view the /v1/engine endpoint serves:
// session-pool effectiveness plus the summed cache counters of every live
// session engine.
type EngineInfo struct {
	// Sessions is the number of live pooled sessions.
	Sessions int `json:"sessions"`
	// SessionHits / SessionMisses count pool lookups that reused vs built
	// a session world.
	SessionHits   uint64 `json:"session_hits"`
	SessionMisses uint64 `json:"session_misses"`
	// Stats is the element-wise sum of every live session engine's
	// counters (see engine.Stats).
	Stats engine.Stats `json:"stats"`
	// SnapshotRestores counts session worlds reinstated from a
	// copy-on-write snapshot instead of a full rebuild (process-wide,
	// covers the CLI experiment paths too).
	SnapshotRestores uint64 `json:"snapshot_restores"`
}

// info snapshots the pool. Session engines are read under their entry
// locks, so a pass in flight finishes first; entries closed since the
// snapshot are skipped.
func (p *sessionPool) info() EngineInfo {
	p.mu.Lock()
	entries := make([]*sessionEntry, 0, len(p.entries))
	for _, e := range p.entries {
		entries = append(entries, e)
	}
	out := EngineInfo{
		Sessions:         len(p.entries),
		SessionHits:      p.hits,
		SessionMisses:    p.misses,
		SnapshotRestores: experiments.SnapshotRestores(),
	}
	p.mu.Unlock()
	for _, e := range entries {
		e.mu.Lock()
		switch {
		case e.closed:
		case e.insp != nil:
			out.Stats = out.Stats.Add(e.insp.EngineStats())
		case e.disc != nil:
			out.Stats = out.Stats.Add(e.disc.EngineStats())
		}
		e.mu.Unlock()
	}
	return out
}
