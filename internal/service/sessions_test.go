package service

import (
	"context"
	"testing"
)

func TestRunScanWithPoolIsByteIdenticalAndCached(t *testing.T) {
	pool := newSessionPool(0)
	ctx := context.Background()

	for _, req := range []ScanRequest{
		{Kind: KindDiscovery},
		{Kind: KindInspect, Provider: "local"},
	} {
		cold, err := runScan(ctx, req)
		if err != nil {
			t.Fatalf("%s: cold run: %v", req.Kind, err)
		}
		first, err := runScanWith(ctx, req, pool)
		if err != nil {
			t.Fatalf("%s: pooled first run: %v", req.Kind, err)
		}
		if first.Rendered != cold.Rendered {
			t.Fatalf("%s: pooled first run differs from cold run", req.Kind)
		}

		missesBefore := pool.info().Stats.FindingMisses
		second, err := runScanWith(ctx, req, pool)
		if err != nil {
			t.Fatalf("%s: pooled second run: %v", req.Kind, err)
		}
		if second.Rendered != cold.Rendered {
			t.Fatalf("%s: pooled second run differs from cold run", req.Kind)
		}
		info := pool.info()
		if info.Stats.FindingMisses != missesBefore {
			t.Errorf("%s: pooled rerun re-validated %d paths, want 0",
				req.Kind, info.Stats.FindingMisses-missesBefore)
		}
	}

	info := pool.info()
	if info.Sessions != 2 || info.SessionMisses != 2 || info.SessionHits != 2 {
		t.Errorf("pool after 2×2 runs: %+v, want 2 sessions, 2 misses, 2 hits", info)
	}
	if info.Stats.FindingHits == 0 {
		t.Error("pooled reruns recorded no engine cache hits")
	}
}

func TestRunScanWithChaosBypassesPool(t *testing.T) {
	pool := newSessionPool(0)
	req := ScanRequest{Kind: KindDiscovery, ChaosRate: 0.02, ChaosSeed: 3}

	pooled, err := runScanWith(context.Background(), req, pool)
	if err != nil {
		t.Fatalf("chaos run: %v", err)
	}
	cold, err := runScan(context.Background(), req)
	if err != nil {
		t.Fatalf("chaos cold run: %v", err)
	}
	if pooled.Rendered != cold.Rendered {
		t.Error("chaos run through the pooled path differs from the one-shot path")
	}
	if info := pool.info(); info.Sessions != 0 || info.SessionMisses != 0 {
		t.Errorf("chaos request touched the session pool: %+v", info)
	}
}

func TestSessionPoolLRUEviction(t *testing.T) {
	pool := newSessionPool(2)
	for _, seed := range []int64{101, 102, 103} {
		if _, err := runScanWith(context.Background(), ScanRequest{Kind: KindDiscovery, Seed: seed}, pool); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
	info := pool.info()
	if info.Sessions != 2 {
		t.Errorf("pool holds %d sessions, want cap 2", info.Sessions)
	}
	if info.SessionMisses != 3 {
		t.Errorf("pool misses = %d, want 3", info.SessionMisses)
	}

	// The evicted (least recently used) seed rebuilds; the fresh ones hit.
	if _, err := runScanWith(context.Background(), ScanRequest{Kind: KindDiscovery, Seed: 103}, pool); err != nil {
		t.Fatal(err)
	}
	if got := pool.info().SessionHits; got != 1 {
		t.Errorf("rerun of resident seed: hits = %d, want 1", got)
	}
	if _, err := runScanWith(context.Background(), ScanRequest{Kind: KindDiscovery, Seed: 101}, pool); err != nil {
		t.Fatal(err)
	}
	if got := pool.info().SessionMisses; got != 4 {
		t.Errorf("rerun of evicted seed: misses = %d, want 4 (rebuild)", got)
	}
}

func TestScanRequestKeyCanonicalizesPagination(t *testing.T) {
	base := ScanRequest{Kind: KindTable1}
	paged := ScanRequest{Kind: KindTable1, Limit: 10, Offset: 40}
	if base.Key() != paged.Key() {
		t.Error("pagination parameters leaked into the dedup key")
	}
	n := paged.Normalize()
	if n.Limit != 0 || n.Offset != 0 {
		t.Errorf("Normalize kept pagination params: %+v", n)
	}

	// End to end: a /v1 submission carrying pagination junk shares the
	// store entry of a clean submission.
	s := New(Config{Workers: 1, Sleep: instantSleep}, nil)
	s.SetRunner(fakeInspectRunner)
	s.Start()
	t.Cleanup(func() {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		_ = s.Shutdown(ctx)
	})

	j1, err := s.Submit(ScanRequest{Kind: KindInspect, Provider: "cc1"})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, s, j1.ID)
	j2, err := s.Submit(ScanRequest{Kind: KindInspect, Provider: "cc1", Limit: 5, Offset: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !j2.CacheHit {
		t.Error("paginated resubmission missed the store — key canonicalization failed")
	}
}
