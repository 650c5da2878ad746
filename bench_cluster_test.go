// Cluster scaling benchmarks: one fleet spec, N in-process workers on
// per-worker replicas, the real coordinator partitioning every scan. The
// sub-benchmarks differ only in worker count, so the workers=1 →
// workers=4 ns/op ratio is the cluster's scaling curve. On a multi-core
// host the curve is near-linear while shards outnumber workers
// (validation is per-container CPU work on independent engines); on a
// single-core CI host it is necessarily flat — and that flatness is
// itself the useful number, because it bounds the coordinator's whole
// overhead (partitioning, dispatch goroutines, heartbeats, merging) at
// the difference between the workers=1 and workers=4 lines. Archived in
// BENCH_PR10.json. Every iteration advances the observation tick, so each
// scan revalidates dirty subsystems through the epoch-delta path instead
// of replaying a warm cache.
package repro

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/cluster"
)

// benchFleetContainers keeps total scan work identical across worker
// counts; benchShardSize fixes the partition layout (8 shards) so only
// the worker fleet varies between sub-benchmarks.
const (
	benchFleetContainers = 48
	benchShardSize       = 6
)

// TestClusterScaling is the wall-clock half of the scaling acceptance:
// a 4-worker cluster scan of a large fleet must beat the 1-worker scan
// by at least 2× on a host with the cores to show it. Opt-in
// (LEAKSD_CLUSTER_SCALE=1) because it needs ≥4 CPUs and seconds of
// compute — single-core CI measures the same topology via
// BenchmarkClusterFleet's overhead bound instead.
func TestClusterScaling(t *testing.T) {
	if os.Getenv("LEAKSD_CLUSTER_SCALE") == "" {
		t.Skip("set LEAKSD_CLUSTER_SCALE=1 to run the wall-clock scaling acceptance")
	}
	if runtime.GOMAXPROCS(0) < 4 {
		t.Skipf("need ≥4 CPUs for a meaningful scaling curve, have %d", runtime.GOMAXPROCS(0))
	}
	const containers = 512
	spec := cluster.Spec{Provider: "local", Containers: containers}
	scan := func(n int) time.Duration {
		workers := make([]*cluster.Worker, n)
		ids := make([]string, n)
		for i := range workers {
			ids[i] = fmt.Sprintf("w%d", i)
			worlds := cluster.NewLocalWorlds(1)
			if _, err := worlds.Fleet(spec); err != nil {
				t.Fatal(err)
			}
			workers[i] = cluster.NewWorker(ids[i], worlds)
		}
		coord := cluster.NewCoordinator(cluster.Config{ShardSize: containers / (4 * n)},
			cluster.NewInProc(workers...), ids, cluster.NewMetrics(nil))
		run := spec
		run.Tick = cluster.DefaultTick + 1 // dirty every subsystem once
		start := time.Now()
		res, err := coord.Scan(context.Background(), run)
		if err != nil || res.Partial {
			t.Fatalf("scan at %d workers: err=%v partial=%v", n, err, res != nil && res.Partial)
		}
		return time.Since(start)
	}
	one, four := scan(1), scan(4)
	t.Logf("workers=1 %v, workers=4 %v (%.2fx)", one, four, float64(one)/float64(four))
	if four > one/2 {
		t.Errorf("4-worker scan %v not ≥2x faster than 1-worker %v", four, one)
	}
}

func BenchmarkClusterFleet(b *testing.B) {
	for _, n := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", n), func(b *testing.B) {
			spec := cluster.Spec{Provider: "local", Containers: benchFleetContainers}
			// Per-worker replicas — the deployment topology, and the one
			// that scales: each worker validates its shards on its own
			// engine. (A SharedWorlds single engine serializes on shared
			// caches; replica clock advances cost microseconds, so
			// duplicating them is free.) Replicas are built outside the
			// timer: the benchmark measures scan fan-out, not world
			// construction.
			workers := make([]*cluster.Worker, n)
			ids := make([]string, n)
			for i := range workers {
				ids[i] = fmt.Sprintf("w%d", i)
				worlds := cluster.NewLocalWorlds(1)
				if _, err := worlds.Fleet(spec); err != nil {
					b.Fatal(err)
				}
				workers[i] = cluster.NewWorker(ids[i], worlds)
			}
			coord := cluster.NewCoordinator(cluster.Config{ShardSize: benchShardSize},
				cluster.NewInProc(workers...), ids, cluster.NewMetrics(nil))

			tick := float64(cluster.DefaultTick)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tick++ // dirty the world: every scan re-renders changed subsystems
				spec.Tick = tick
				res, err := coord.Scan(context.Background(), spec)
				if err != nil {
					b.Fatal(err)
				}
				if res.Partial || len(res.Findings) != benchFleetContainers {
					b.Fatalf("iteration %d: partial=%v findings=%d", i, res.Partial, len(res.Findings))
				}
			}
		})
	}
}
