// Command benchjson converts `go test -bench` text output (read from
// stdin) into a JSON benchmark report, so CI can archive machine-readable
// numbers next to the human-readable README table.
//
// Usage:
//
//	go test -run '^$' -bench . -benchtime=1x . | go run ./internal/tools/benchjson -o BENCH_PR10.json
//
// Lines that are not benchmark results (the goos/goarch/pkg preamble,
// PASS/ok trailers) are captured as metadata or skipped; a run with zero
// benchmark lines is an error, because an empty report silently archived
// is worse than a failed CI step.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// Result is one benchmark line in structured form.
type Result struct {
	// Name is the benchmark's name with the -P GOMAXPROCS suffix split off
	// (BenchmarkTable1LeakScan-8 → BenchmarkTable1LeakScan, procs 8).
	Name       string  `json:"name"`
	Procs      int     `json:"procs,omitempty"`
	Iterations int64   `json:"iterations"`
	NsPerOp    float64 `json:"ns_per_op,omitempty"`
	// Extra holds every additional "<value> <unit>" pair on the line
	// (B/op, allocs/op, and any custom ReportMetric units).
	Extra map[string]float64 `json:"extra,omitempty"`
}

// Report is the whole document written to -o.
type Report struct {
	GoVersion string   `json:"go_version"`
	Goos      string   `json:"goos"`
	Goarch    string   `json:"goarch"`
	Pkg       string   `json:"pkg,omitempty"`
	CPU       string   `json:"cpu,omitempty"`
	Results   []Result `json:"results"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stderr))
}

func run(args []string, stdin io.Reader, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	fs.SetOutput(stderr)
	out := fs.String("o", "", "output file (default stdout)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	rep, err := parse(stdin)
	if err != nil {
		fmt.Fprintf(stderr, "benchjson: %v\n", err)
		return 1
	}
	raw, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(stderr, "benchjson: %v\n", err)
		return 1
	}
	raw = append(raw, '\n')
	if *out == "" {
		os.Stdout.Write(raw)
		return 0
	}
	if err := os.WriteFile(*out, raw, 0o644); err != nil {
		fmt.Fprintf(stderr, "benchjson: %v\n", err)
		return 1
	}
	return 0
}

// parse consumes `go test -bench` output and builds the report.
func parse(r io.Reader) (*Report, error) {
	rep := &Report{
		GoVersion: runtime.Version(),
		Goos:      runtime.GOOS,
		Goarch:    runtime.GOARCH,
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "pkg:"):
			rep.Pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "cpu:"):
			rep.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "Benchmark"):
			res, ok := parseBenchLine(line)
			if ok {
				rep.Results = append(rep.Results, res)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(rep.Results) == 0 {
		return nil, fmt.Errorf("no benchmark result lines on stdin")
	}
	return rep, nil
}

// parseBenchLine splits "BenchmarkFoo-8  3  123 ns/op  45 B/op ..." into a
// Result. Returns ok == false for lines that merely start with the word
// Benchmark (e.g. a wrapped name with no fields).
func parseBenchLine(line string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return Result{}, false
	}
	res := Result{Name: fields[0], Extra: map[string]float64{}}
	if i := strings.LastIndex(res.Name, "-"); i > 0 {
		if procs, err := strconv.Atoi(res.Name[i+1:]); err == nil {
			res.Name, res.Procs = res.Name[:i], procs
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	res.Iterations = iters
	// The remainder is "<value> <unit>" pairs.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		if fields[i+1] == "ns/op" {
			res.NsPerOp = v
		} else {
			res.Extra[fields[i+1]] = v
		}
	}
	if len(res.Extra) == 0 {
		res.Extra = nil
	}
	return res, true
}
