package service

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"repro/internal/chaos"
	"repro/internal/cloud"
	"repro/internal/experiments"
	"repro/internal/service/respcache"
)

// Kind names a scan job type — the job-shaped entry points of
// internal/experiments the scheduler knows how to run.
type Kind string

// Supported scan kinds.
const (
	// KindTable1 runs the full six-provider Table I inspection.
	KindTable1 Kind = "table1"
	// KindInspect inspects a single provider (Request.Provider).
	KindInspect Kind = "inspect"
	// KindDiscovery sweeps the local testbed for leaking files beyond the
	// Table I registry.
	KindDiscovery Kind = "discovery"
	// KindMatrix runs the runtime-aware availability matrix: the Table I
	// channels plus the frequency channel against the five commercial
	// clouds plus the four modern runtime targets.
	KindMatrix Kind = "matrix"
	// KindFig3 runs the synergistic-vs-periodic power attack comparison.
	KindFig3 Kind = "fig3"
	// KindFig8 measures the defense's modeling error on the SPEC subset.
	KindFig8 Kind = "fig8"
	// KindChaosSweep runs the fault-rate degradation grid.
	KindChaosSweep Kind = "chaossweep"
)

// Kinds lists every supported kind (for validation errors and /v1/channels
// style introspection).
func Kinds() []Kind {
	return []Kind{KindTable1, KindInspect, KindDiscovery, KindMatrix, KindFig3, KindFig8, KindChaosSweep}
}

// ScanRequest is the client-facing description of one scan. The zero value
// of every optional field selects the CLI default, so a bare
// {"kind":"table1"} reproduces `leakscan -table1` byte for byte.
type ScanRequest struct {
	Kind Kind `json:"kind"`
	// Provider selects the profile for KindInspect ("local", "lxc", "cc1"
	// … "cc5"); ignored by other kinds.
	Provider string `json:"provider,omitempty"`
	// Runtime selects a container-runtime target for KindInspect
	// ("gvisor", "kata", "rootless", "podman") — mutually exclusive with
	// Provider; ignored by other kinds. Runtime inspections roll up over
	// the matrix channel set (Table I plus the frequency channel).
	Runtime string `json:"runtime,omitempty"`
	// Seed is the datacenter seed for seed-varied campaigns; 0 selects the
	// kind's historical default (experiments.DefaultInspectSeed etc.).
	Seed int64 `json:"seed,omitempty"`
	// ChaosRate arms deterministic fault injection on the scan's
	// observation surface; 0 disables it.
	ChaosRate float64 `json:"chaos_rate,omitempty"`
	// ChaosSeed seeds the fault streams (only meaningful with ChaosRate >
	// 0; defaults to 1, matching the CLI flag default).
	ChaosSeed int64 `json:"chaos_seed,omitempty"`
	// Workers bounds the scan's internal worker pool (0 = GOMAXPROCS).
	// Excluded from the dedup key: output is byte-identical at any count.
	Workers int `json:"workers,omitempty"`
	// Limit / Offset are the /v1 pagination parameters. Clients that reuse
	// their list-query builders when submitting scans may send them; they
	// never affect what a scan computes, so Normalize clears them and Key
	// excludes them — a paginated submission and a bare submission of the
	// same scan share one store entry.
	Limit  int `json:"limit,omitempty"`
	Offset int `json:"offset,omitempty"`
}

// Normalize canonicalizes a request so that equal questions hash equal:
// chaos-off requests drop their chaos seed (it is dead state), chaos-on
// requests default the seed to 1 exactly like the -chaosseed flag, the
// datacenter seed resolves to the kind's actual default (so seed 0 and the
// explicit historical seed dedup to one cache entry) or to nothing for
// kinds that ignore it, and the /v1 pagination parameters are cleared (they
// shape list responses, never scan output).
func (r ScanRequest) Normalize() ScanRequest {
	r.Limit = 0
	r.Offset = 0
	if r.ChaosRate <= 0 {
		r.ChaosRate = 0
		r.ChaosSeed = 0
	} else if r.ChaosSeed == 0 {
		r.ChaosSeed = 1
	}
	if r.Kind != KindInspect {
		r.Provider = ""
		r.Runtime = ""
	}
	switch r.Kind {
	case KindTable1, KindInspect, KindMatrix:
		if r.Seed == 0 {
			r.Seed = experiments.DefaultInspectSeed
		}
	case KindDiscovery:
		if r.Seed == 0 {
			r.Seed = experiments.DefaultDiscoverySeed
		}
	default:
		r.Seed = 0 // fig3 / fig8 / chaossweep run fixed internal seeds
	}
	return r
}

// Validate rejects malformed requests with client-facing errors.
func (r ScanRequest) Validate() error {
	switch r.Kind {
	case KindTable1, KindDiscovery, KindMatrix, KindFig3, KindFig8, KindChaosSweep:
	case KindInspect:
		if r.Provider != "" && r.Runtime != "" {
			return fmt.Errorf("kind %q takes provider or runtime, not both", r.Kind)
		}
		if r.Runtime != "" {
			if _, ok := RuntimeByName(r.Runtime); !ok {
				return fmt.Errorf("%w: unknown runtime %q (one of %v)", ErrUnknownTarget, r.Runtime, RuntimeNames())
			}
			break
		}
		if r.Provider == "" {
			return fmt.Errorf("kind %q requires a provider (one of %v)", r.Kind, ProviderNames())
		}
		if _, ok := ProviderByName(r.Provider); !ok {
			return fmt.Errorf("unknown provider %q (one of %v)", r.Provider, ProviderNames())
		}
	case "":
		return fmt.Errorf("missing kind (one of %v)", Kinds())
	default:
		return fmt.Errorf("unknown kind %q (one of %v)", r.Kind, Kinds())
	}
	if r.ChaosRate < 0 || r.ChaosRate > 1 {
		return fmt.Errorf("chaos_rate %g outside [0,1]", r.ChaosRate)
	}
	if r.Workers < 0 {
		return fmt.Errorf("workers %d negative", r.Workers)
	}
	return nil
}

// Chaos converts the request's chaos knobs to a spec.
func (r ScanRequest) Chaos() chaos.Spec {
	if r.ChaosRate <= 0 {
		return chaos.Spec{}
	}
	return chaos.Spec{Rate: r.ChaosRate, Seed: r.ChaosSeed}
}

// Key is the content hash under which this request's result is stored:
// identical scan configs dedup to one cache entry. The canonical string
// covers everything that can change the output bytes — kind, provider,
// seed, chaos spec — and nothing that cannot (worker count, pagination).
// The provider/pagination portion renders through respcache.Query.Canonical
// — the same canonicalizer the /v1 response cache keys on — so the scan
// dedup key and the response-cache key cannot drift apart on how
// equivalent spellings (limit=50 vs absent, reordered parameters)
// canonicalize.
func (r ScanRequest) Key() string {
	n := r.Normalize()
	// Runtime rides in the same canonicalizer; the empty runtime emits no
	// runtime= term, so every pre-runtime request keeps its historical key.
	q := respcache.Query{Provider: n.Provider, Runtime: n.Runtime, Limit: respcache.NoLimit}
	canon := fmt.Sprintf("v2|%s|%s|%d|%g|%d", n.Kind, q.Canonical(), n.Seed, n.ChaosRate, n.ChaosSeed)
	sum := sha256.Sum256([]byte(canon))
	return hex.EncodeToString(sum[:16])
}

// ProviderByName resolves a profile by its Table I name.
func ProviderByName(name string) (cloud.ProviderProfile, bool) {
	for _, p := range allProviders() {
		if p.Name == name {
			return p, true
		}
	}
	return cloud.ProviderProfile{}, false
}

// ProviderNames lists the inspectable profiles in Table I column order.
func ProviderNames() []string {
	ps := allProviders()
	names := make([]string, len(ps))
	for i, p := range ps {
		names[i] = p.Name
	}
	return names
}

func allProviders() []cloud.ProviderProfile {
	return append([]cloud.ProviderProfile{cloud.LocalTestbed(), cloud.LocalLXC()}, cloud.CommercialClouds()...)
}

// RuntimeByName resolves a container-runtime target by name. Runtime
// targets are deliberately not providers: /v1/providers stays
// byte-identical, and the runtime names live on their own endpoint.
func RuntimeByName(name string) (cloud.ProviderProfile, bool) {
	for _, p := range cloud.RuntimeTargets() {
		if p.Name == name {
			return p, true
		}
	}
	return cloud.ProviderProfile{}, false
}

// RuntimeNames lists the runtime targets in matrix column order.
func RuntimeNames() []string {
	ps := cloud.RuntimeTargets()
	names := make([]string, len(ps))
	for i, p := range ps {
		names[i] = p.Name
	}
	return names
}

// MatrixTargetNames lists every matrix column (clouds then runtimes) in
// canonical order.
func MatrixTargetNames() []string {
	ps := cloud.MatrixTargets()
	names := make([]string, len(ps))
	for i, p := range ps {
		names[i] = p.Name
	}
	return names
}
