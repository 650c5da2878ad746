package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const baselineJSON = `{
  "results": [
    {"name": "BenchmarkFig3Sweep", "ns_per_op": 4000000000,
     "extra": {"B/op": 294644440, "allocs/op": 1000000}}
  ]
}`

func writeBaseline(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := os.WriteFile(path, []byte(baselineJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func runGuard(t *testing.T, path, benchLine string) (int, string, string) {
	t.Helper()
	var out, errb strings.Builder
	code := run([]string{
		"-baseline", path, "-gate", "BenchmarkFig3Sweep:allocs/op:0.10",
	}, strings.NewReader(benchLine), &out, &errb)
	return code, out.String(), errb.String()
}

func TestGuardPassesWithinBudget(t *testing.T) {
	path := writeBaseline(t)
	code, out, _ := runGuard(t, path,
		"BenchmarkFig3Sweep-8   1  3900000000 ns/op  290000000 B/op  1050000 allocs/op\nPASS\n")
	if code != 0 {
		t.Fatalf("code=%d out=%q", code, out)
	}
	if !strings.Contains(out, "ok") {
		t.Fatalf("verdict missing from %q", out)
	}
}

func TestGuardPassesOnImprovement(t *testing.T) {
	path := writeBaseline(t)
	code, _, _ := runGuard(t, path,
		"BenchmarkFig3Sweep-8   1  3900000000 ns/op  290000000 B/op  400000 allocs/op\n")
	if code != 0 {
		t.Fatalf("improvement must pass, code=%d", code)
	}
}

func TestGuardFailsOnRegression(t *testing.T) {
	path := writeBaseline(t)
	code, out, errs := runGuard(t, path,
		"BenchmarkFig3Sweep-8   1  3900000000 ns/op  290000000 B/op  1200000 allocs/op\n")
	if code != 1 {
		t.Fatalf("20%% regression must fail, code=%d out=%q", code, out)
	}
	if !strings.Contains(out, "REGRESSION") || !strings.Contains(errs, "regressed") {
		t.Fatalf("diagnostics missing: out=%q err=%q", out, errs)
	}
}

func TestGuardRejectsMissingMetricColumn(t *testing.T) {
	path := writeBaseline(t)
	code, _, errs := runGuard(t, path,
		"BenchmarkFig3Sweep-8   1  3900000000 ns/op\n")
	if code != 1 || !strings.Contains(errs, "-benchmem") {
		t.Fatalf("missing -benchmem hint: code=%d err=%q", code, errs)
	}
}

func TestGuardRejectsUnknownBenchmark(t *testing.T) {
	path := writeBaseline(t)
	var out, errb strings.Builder
	code := run([]string{"-baseline", path, "-gate", "BenchmarkNope:allocs/op:0.10"},
		strings.NewReader("BenchmarkFig3Sweep-8 1 1 ns/op 1 B/op 1 allocs/op\n"), &out, &errb)
	if code != 1 || !strings.Contains(errb.String(), "no result named") {
		t.Fatalf("code=%d err=%q", code, errb.String())
	}
}

const multiBaselineJSON = `{
  "results": [
    {"name": "BenchmarkFig3Sweep", "ns_per_op": 4000000000,
     "extra": {"allocs/op": 1000000}},
    {"name": "BenchmarkV1ResultsHit", "ns_per_op": 300,
     "extra": {"allocs/op": 0}},
    {"name": "BenchmarkServingLoad", "ns_per_op": 500,
     "extra": {"p99-ns": 900, "req/s": 2000000}}
  ]
}`

func writeMultiBaseline(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := os.WriteFile(path, []byte(multiBaselineJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const multiFresh = "BenchmarkFig3Sweep-8   1  3900000000 ns/op  1050000 allocs/op\n" +
	"BenchmarkV1ResultsHit-8   200000  310 ns/op  0 B/op  0 allocs/op\n" +
	"BenchmarkServingLoad-8   200000  510 ns/op  950 p99-ns  1900000 req/s  0 allocs/op\n" +
	"PASS\n"

// TestGuardMultiGate: several -gate flags evaluate against one stdin pass.
func TestGuardMultiGate(t *testing.T) {
	path := writeMultiBaseline(t)
	var out, errb strings.Builder
	code := run([]string{
		"-baseline", path,
		"-gate", "BenchmarkFig3Sweep:allocs/op:0.10",
		"-gate", "BenchmarkV1ResultsHit:allocs/op:0",
		"-gate", "BenchmarkServingLoad:p99-ns:0.50",
	}, strings.NewReader(multiFresh), &out, &errb)
	if code != 0 {
		t.Fatalf("code=%d out=%q err=%q", code, out.String(), errb.String())
	}
	if got := strings.Count(out.String(), "→ ok"); got != 3 {
		t.Fatalf("want 3 ok verdicts, got %d in %q", got, out.String())
	}
}

// TestGuardZeroAllocGateFails: a max-regress of 0 on a 0-alloc baseline
// fails on the first allocation.
func TestGuardZeroAllocGateFails(t *testing.T) {
	path := writeMultiBaseline(t)
	fresh := strings.Replace(multiFresh, "310 ns/op  0 B/op  0 allocs/op", "310 ns/op  16 B/op  1 allocs/op", 1)
	var out, errb strings.Builder
	code := run([]string{
		"-baseline", path,
		"-gate", "BenchmarkV1ResultsHit:allocs/op:0",
	}, strings.NewReader(fresh), &out, &errb)
	if code != 1 || !strings.Contains(out.String(), "REGRESSION") {
		t.Fatalf("1-alloc regression must fail: code=%d out=%q", code, out.String())
	}
}

// TestGuardBadGateSyntax: malformed -gate values are flag errors.
func TestGuardBadGateSyntax(t *testing.T) {
	for _, bad := range []string{"NoColons", "OnlyOne:colon", "A:B:notanumber", "A:B:-0.5"} {
		var out, errb strings.Builder
		code := run([]string{"-baseline", "x.json", "-gate", bad},
			strings.NewReader(""), &out, &errb)
		if code != 2 {
			t.Errorf("gate %q: code=%d, want 2 (flag parse error)", bad, code)
		}
	}
}
