package service

import "repro/internal/telemetry"

// Metrics bundles the scheduler's instrumentation. All families live in
// one telemetry.Registry that cmd/leaksd also exposes at /v1/metrics; tests
// read the same registry through the typed handles.
type Metrics struct {
	Registry *telemetry.Registry

	// ScansTotal counts finished scans by kind and terminal status
	// (done / failed / canceled).
	ScansTotal *telemetry.CounterVec
	// ScanSeconds is scan wall-clock latency by kind (compute only —
	// cache hits are served in-line and recorded by CacheHits instead).
	ScanSeconds *telemetry.HistogramVec
	// QueueDepth is the number of jobs waiting in the bounded queue.
	QueueDepth *telemetry.GaugeVec
	// Inflight is the number of scans currently executing.
	Inflight *telemetry.GaugeVec
	// CacheHits / CacheMisses count Submit-time store lookups.
	CacheHits, CacheMisses *telemetry.CounterVec
	// Retries counts re-executions after a failed attempt — under chaos
	// specs this is the chaos-induced-retry signal.
	Retries *telemetry.CounterVec
	// QueueRejects counts submissions refused because the queue was full
	// or the scheduler was draining.
	QueueRejects *telemetry.CounterVec
	// Verdicts counts leakage verdicts by channel and availability as
	// inspection scans land.
	Verdicts *telemetry.CounterVec
	// VerdictChanges counts verdict cells that flipped availability.
	VerdictChanges *telemetry.CounterVec
	// EventsDropped counts per-subscriber event deliveries shed because a
	// subscriber stalled.
	EventsDropped *telemetry.CounterVec
	// StoreEntries gauges the result store's live size.
	StoreEntries *telemetry.GaugeVec
	// StoreEvictions / StoreExpirations count LRU and TTL removals.
	StoreEvictions, StoreExpirations *telemetry.CounterVec
	// EngineSessions gauges live engine-backed sessions in the pool;
	// EngineSessionHits / EngineSessionMisses mirror pool lookups that
	// reused vs built a session world.
	EngineSessions, EngineSessionHits, EngineSessionMisses *telemetry.GaugeVec
	// EngineFindingHits / EngineFindingMisses mirror the aggregate
	// incremental-engine verdict cache counters; EngineHostRenders /
	// EngineHostHits mirror the shared host-read cache. Gauges because
	// they are snapshots of counters owned by pooled engines (sessions
	// can be evicted, so the aggregate is not monotone).
	EngineFindingHits, EngineFindingMisses *telemetry.GaugeVec
	EngineHostRenders, EngineHostHits      *telemetry.GaugeVec
	// EngineSnapshotRestores mirrors the experiment layer's world-pool
	// counter: session worlds reinstated from a copy-on-write snapshot
	// instead of a full cloud.New rebuild (process-wide and monotone, but a
	// gauge for symmetry with the other mirrored engine counters).
	EngineSnapshotRestores *telemetry.GaugeVec
	// HTTPRequests counts /v1 read-path responses by endpoint and status
	// ("200" or "304"); HTTPRequestSeconds is the serving latency. The
	// serving path resolves each child once at handler construction — With
	// on every request would allocate, and the cache-hit path is contracted
	// to zero allocations.
	HTTPRequests       *telemetry.CounterVec
	HTTPRequestSeconds *telemetry.HistogramVec
	// HTTPCacheHits / HTTPCacheMisses count response-cache lookups by
	// endpoint. A miss is a cold render (epoch just bumped, new window, or
	// the cache is disabled).
	HTTPCacheHits, HTTPCacheMisses *telemetry.CounterVec
	// Policies gauges the live policy records; PolicySyntheses counts
	// synthesis runs by provider.
	Policies        *telemetry.GaugeVec
	PolicySyntheses *telemetry.CounterVec
	// PolicyRollouts counts rollout terminations by provider and terminal
	// phase (done / rolled_back); PolicyRollbacks counts auto-rollbacks
	// specifically (the alerting signal); PolicyBenignFailures counts the
	// individual benign reads a rollout's health check caught broken.
	PolicyRollouts, PolicyRollbacks *telemetry.CounterVec
	PolicyBenignFailures            *telemetry.CounterVec
	// PolicyChannelsClosed / PolicyCanaryContainers gauge the latest
	// rollout's closure and canary-set size per provider.
	PolicyChannelsClosed   *telemetry.GaugeVec
	PolicyCanaryContainers *telemetry.GaugeVec
}

// NewMetrics registers every scheduler metric on reg (a fresh registry if
// nil) under the leaksd_ prefix.
func NewMetrics(reg *telemetry.Registry) *Metrics {
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	return &Metrics{
		Registry: reg,
		ScansTotal: reg.Counter("leaksd_scans_total",
			"Finished scans by kind and terminal status.", "kind", "status"),
		ScanSeconds: reg.Histogram("leaksd_scan_duration_seconds",
			"Scan execution latency by kind (cache hits excluded).", nil, "kind"),
		QueueDepth: reg.Gauge("leaksd_queue_depth",
			"Jobs waiting in the bounded scan queue."),
		Inflight: reg.Gauge("leaksd_scans_inflight",
			"Scans currently executing."),
		CacheHits: reg.Counter("leaksd_cache_hits_total",
			"Scan submissions served from the result store."),
		CacheMisses: reg.Counter("leaksd_cache_misses_total",
			"Scan submissions that required computation."),
		Retries: reg.Counter("leaksd_scan_retries_total",
			"Scan attempts re-executed after a failure, by kind.", "kind"),
		QueueRejects: reg.Counter("leaksd_queue_rejects_total",
			"Submissions refused (queue full or draining).", "reason"),
		Verdicts: reg.Counter("leaksd_verdicts_total",
			"Leakage verdicts observed, by channel and availability.", "channel", "availability"),
		VerdictChanges: reg.Counter("leaksd_verdict_changes_total",
			"Verdict cells whose availability changed, by provider.", "provider"),
		EventsDropped: reg.Counter("leaksd_events_dropped_total",
			"Event deliveries shed because a subscriber stalled."),
		StoreEntries: reg.Gauge("leaksd_store_entries",
			"Live entries in the result store."),
		StoreEvictions: reg.Counter("leaksd_store_evictions_total",
			"Result-store entries evicted by LRU pressure."),
		StoreExpirations: reg.Counter("leaksd_store_expirations_total",
			"Result-store entries removed by TTL."),
		EngineSessions: reg.Gauge("leaksd_engine_sessions",
			"Live engine-backed scan sessions in the pool."),
		EngineSessionHits: reg.Gauge("leaksd_engine_session_hits",
			"Pool lookups that reused an existing session world."),
		EngineSessionMisses: reg.Gauge("leaksd_engine_session_misses",
			"Pool lookups that built a new session world."),
		EngineFindingHits: reg.Gauge("leaksd_engine_finding_hits",
			"Aggregate per-path verdicts served from the incremental engine cache."),
		EngineFindingMisses: reg.Gauge("leaksd_engine_finding_misses",
			"Aggregate per-path verdicts re-validated by the incremental engine."),
		EngineHostRenders: reg.Gauge("leaksd_engine_host_renders",
			"Aggregate genuine host-side pseudo-file renders."),
		EngineHostHits: reg.Gauge("leaksd_engine_host_hits",
			"Aggregate host-side reads served from the shared render cache."),
		EngineSnapshotRestores: reg.Gauge("leaksd_engine_snapshot_restores_total",
			"World restores that replaced a full rebuild in the experiment layer."),
		HTTPRequests: reg.Counter("leaksd_http_requests_total",
			"Cached /v1 read-path responses by endpoint and status.", "endpoint", "status"),
		HTTPRequestSeconds: reg.Histogram("leaksd_http_request_seconds",
			"Cached /v1 read-path serving latency by endpoint.",
			telemetry.DefaultServingBuckets(), "endpoint"),
		HTTPCacheHits: reg.Counter("leaksd_http_respcache_hits_total",
			"Response-cache lookups served from a prebuilt entry, by endpoint.", "endpoint"),
		HTTPCacheMisses: reg.Counter("leaksd_http_respcache_misses_total",
			"Response-cache lookups that required a cold render, by endpoint.", "endpoint"),
		Policies: reg.Gauge("leaksd_policies",
			"Live mask-policy records."),
		PolicySyntheses: reg.Counter("leaksd_policy_syntheses_total",
			"Mask-policy synthesis runs, by provider.", "provider"),
		PolicyRollouts: reg.Counter("leaksd_policy_rollouts_total",
			"Policy rollouts reaching a terminal phase, by provider and phase.", "provider", "phase"),
		PolicyRollbacks: reg.Counter("leaksd_policy_rollbacks_total",
			"Canary rollouts auto-rolled-back on benign breakage, by provider.", "provider"),
		PolicyBenignFailures: reg.Counter("leaksd_policy_benign_failures_total",
			"Benign pseudo-file reads a rollout health check found broken, by provider.", "provider"),
		PolicyChannelsClosed: reg.Gauge("leaksd_policy_channels_closed",
			"Table I channels closed by the latest rollout, by provider.", "provider"),
		PolicyCanaryContainers: reg.Gauge("leaksd_policy_canary_containers",
			"Containers in the latest rollout's canary set, by provider.", "provider"),
	}
}
