// Command benchguard is the CI benchmark-regression gate: it reads fresh
// `go test -bench -benchmem` text from stdin, extracts each gated
// benchmark's metric, and compares it against the committed JSON baseline
// (the BENCH_PR10.json archived by `make bench-json`). A gate fails when
// the fresh value exceeds baseline × (1 + max-regress).
//
// Gates are declared with the repeatable -gate flag, "bench:metric:frac":
//
//	{ go test -run '^$' -bench '^BenchmarkFig3Sweep$' -benchtime=1x -benchmem . &&
//	  go test -run '^$' -bench '^BenchmarkV1ResultsHit$' -benchtime=200000x -benchmem . ; } |
//	  go run ./internal/tools/benchguard -baseline BENCH_PR10.json \
//	    -gate 'BenchmarkFig3Sweep:allocs/op:0.10' \
//	    -gate 'BenchmarkV1ResultsHit:allocs/op:0' \
//	    -gate 'BenchmarkServingLoad:p99-ns:0.50'
//
// A frac of 0 is the strictest gate: any increase over baseline fails —
// the shape of a zero-allocation contract.
//
// Improvements (fresh < baseline) always pass — the gate is one-sided, so
// it never blocks a PR for being faster; refresh the baseline with
// `make bench-json` when an optimization lands.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// report mirrors the subset of internal/tools/benchjson's schema the guard
// needs.
type report struct {
	Results []struct {
		Name    string             `json:"name"`
		NsPerOp float64            `json:"ns_per_op"`
		Extra   map[string]float64 `json:"extra"`
	} `json:"results"`
}

// gate is one benchmark/metric regression bound.
type gate struct {
	bench, metric string
	maxRegress    float64
}

// gateFlags collects repeated -gate values.
type gateFlags []gate

func (g *gateFlags) String() string {
	parts := make([]string, len(*g))
	for i, x := range *g {
		parts[i] = fmt.Sprintf("%s:%s:%g", x.bench, x.metric, x.maxRegress)
	}
	return strings.Join(parts, ",")
}

// Set parses "bench:metric:frac". The metric may itself contain no colon
// (allocs/op, ns/op, p99-ns all qualify), so splitting on the first and
// last colon is unambiguous.
func (g *gateFlags) Set(s string) error {
	first := strings.Index(s, ":")
	last := strings.LastIndex(s, ":")
	if first < 0 || first == last {
		return fmt.Errorf("gate %q: want bench:metric:max-regress", s)
	}
	frac, err := strconv.ParseFloat(s[last+1:], 64)
	if err != nil || frac < 0 {
		return fmt.Errorf("gate %q: max-regress must be a non-negative number", s)
	}
	*g = append(*g, gate{bench: s[:first], metric: s[first+1 : last], maxRegress: frac})
	return nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchguard", flag.ContinueOnError)
	fs.SetOutput(stderr)
	baselinePath := fs.String("baseline", "", "committed benchjson report to guard against")
	var gates gateFlags
	fs.Var(&gates, "gate", `repeatable gate "bench:metric:max-regress" (e.g. "BenchmarkV1ResultsHit:allocs/op:0")`)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "benchguard: %v\n", err)
		return 1
	}
	if *baselinePath == "" || len(gates) == 0 {
		return fail(fmt.Errorf("-baseline and at least one -gate are required"))
	}

	baseline, err := loadBaseline(*baselinePath)
	if err != nil {
		return fail(err)
	}
	fresh, err := parseBenchOutput(stdin)
	if err != nil {
		return fail(err)
	}

	code := 0
	for _, g := range gates {
		bm, ok := baseline[g.bench]
		if !ok {
			return fail(fmt.Errorf("%s: no result named %s", *baselinePath, g.bench))
		}
		base, ok := bm[g.metric]
		if !ok {
			return fail(fmt.Errorf("%s: %s has no %q metric", *baselinePath, g.bench, g.metric))
		}
		freshV, ok := fresh[g.bench][g.metric]
		if !ok {
			return fail(fmt.Errorf("stdin has no %s for %s (did you pass -benchmem and run the benchmark?)", g.metric, g.bench))
		}
		limit := base * (1 + g.maxRegress)
		verdict := "ok"
		if freshV > limit {
			verdict = "REGRESSION"
			code = 1
			fmt.Fprintf(stderr, "benchguard: %s %s regressed to %.0f over the committed baseline %.0f (max +%.0f%%)\n",
				g.bench, g.metric, freshV, base, g.maxRegress*100)
		}
		fmt.Fprintf(stdout, "benchguard %s %s: baseline=%.0f fresh=%.0f limit=%.0f (+%.0f%%) → %s\n",
			g.bench, g.metric, base, freshV, limit, g.maxRegress*100, verdict)
	}
	return code
}

// loadBaseline indexes the committed JSON report as bench → metric → value.
func loadBaseline(path string) (map[string]map[string]float64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(raw, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := make(map[string]map[string]float64, len(rep.Results))
	for _, r := range rep.Results {
		m := map[string]float64{"ns/op": r.NsPerOp}
		for k, v := range r.Extra {
			m[k] = v
		}
		out[r.Name] = m
	}
	return out, nil
}

// parseBenchOutput scans `go test -bench` text into bench → metric →
// value (benchmark names lose their -P GOMAXPROCS suffix).
func parseBenchOutput(r io.Reader) (map[string]map[string]float64, error) {
	out := make(map[string]map[string]float64)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 3 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			name = name[:i]
		}
		m := out[name]
		if m == nil {
			m = make(map[string]float64)
			out[name] = m
		}
		// fields: name iterations v1 unit1 v2 unit2 …
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("parse %q %s: %w", fields[i], fields[i+1], err)
			}
			m[fields[i+1]] = v
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
