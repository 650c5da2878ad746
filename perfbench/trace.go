package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the public function it calls. Spans of one operation (a fig3 seed, a
// scan, a read) share Op; Parent is the id of the enclosing span or -1.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Op     string `json:"op"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (-1 when untraced).
func (t *tracer) begin(name, op string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Op: op, Start: now})
	t.mu.Unlock()
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// layerTime is the aggregate of every span of one name.
type layerTime struct {
	Count int
	Total time.Duration // sum of span durations
	Self  time.Duration // sum of durations minus the time covered by child spans
}

// byName aggregates the spans per name. A span's self time is its
// duration minus the time its children cover; children of one span are
// sequential calls, so their durations add up without overlap.
func (t *tracer) byName() map[string]layerTime {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 && s.End > 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]layerTime)
	for i, s := range t.spans {
		if s.End == 0 {
			continue
		}
		lt := out[s.Name]
		lt.Count++
		lt.Total += time.Duration(s.End - s.Start)
		lt.Self += time.Duration(s.End - s.Start - child[i])
		out[s.Name] = lt
	}
	return out
}

// write stores the spans as JSON lines at path.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// msPer returns the mean span duration of name in milliseconds (0 when
// the workload made no such call).
func msPer(agg map[string]layerTime, name string) float64 {
	lt, ok := agg[name]
	if !ok || lt.Count == 0 {
		return 0
	}
	return float64(lt.Total) / float64(lt.Count) / 1e6
}

// rtSample is a runtime/metrics reading.
type rtSample struct {
	allocs   uint64 // cumulative heap objects allocated
	gcCPU    float64
	totalCPU float64
	pauses   *metrics.Float64Histogram
}

var rtNames = []string{
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/sched/pauses/total/gc:seconds",
}

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	var out rtSample
	if s[0].Value.Kind() == metrics.KindUint64 {
		out.allocs = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		out.gcCPU = s[1].Value.Float64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64 {
		out.totalCPU = s[2].Value.Float64()
	}
	if s[3].Value.Kind() == metrics.KindFloat64Histogram {
		h := s[3].Value.Float64Histogram()
		out.pauses = &metrics.Float64Histogram{
			Counts:  append([]uint64(nil), h.Counts...),
			Buckets: append([]float64(nil), h.Buckets...),
		}
	}
	return out
}

// allocsSince returns the heap objects allocated between a and b.
func allocsSince(a, b rtSample) float64 { return float64(b.allocs - a.allocs) }

// gcShare returns the share of the process CPU time spent in the GC
// between a and b.
func gcShare(a, b rtSample) float64 {
	total := b.totalCPU - a.totalCPU
	if total <= 0 {
		return 0
	}
	return (b.gcCPU - a.gcCPU) / total
}

// pauseP99us returns the 99th percentile GC stop-the-world pause between
// a and b in microseconds, read from the upper edge of the runtime's
// histogram bucket (0 when no pause happened).
func pauseP99us(a, b rtSample) float64 {
	if a.pauses == nil || b.pauses == nil {
		return 0
	}
	counts := make([]uint64, len(b.pauses.Counts))
	var n uint64
	for i := range counts {
		counts[i] = b.pauses.Counts[i] - a.pauses.Counts[i]
		n += counts[i]
	}
	if n == 0 {
		return 0
	}
	rank := uint64(float64(n-1)*0.99) + 1
	var seen uint64
	for i, c := range counts {
		seen += c
		if seen >= rank {
			return b.pauses.Buckets[i+1] * 1e6
		}
	}
	return 0
}

// packageShares decodes a gzipped CPU profile as written by runtime/pprof
// and returns each package's share of the sampled CPU time. A sample is
// charged to the innermost frame of its stack that belongs to a package
// under prefix, so the standard-library and runtime code a layer calls
// counts as that layer's; samples with no such frame (GC workers, the
// scheduler) are charged to no package but still count in the total.
func packageShares(gz []byte, prefix string) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	type sample struct {
		locs []uint64 // leaf first
		vals []int64
	}
	var (
		strs      []string
		samples   []sample
		typeNames []uint64
		locFuncs  = map[uint64][]uint64{} // location id → function ids, innermost inlined frame first
		funcName  = map[uint64]uint64{}   // function id → string index
	)
	varints := func(v uint64, b []byte, dst *[]uint64) error {
		if b == nil {
			*dst = append(*dst, v)
			return nil
		}
		return pbPacked(b, func(x uint64) { *dst = append(*dst, x) })
	}
	err = pbFields(raw, func(field int, _ uint64, b []byte) error {
		switch field {
		case 1: // sample_type: ValueType{type, unit}
			return pbFields(b, func(f int, v uint64, _ []byte) error {
				if f == 1 {
					typeNames = append(typeNames, v)
				}
				return nil
			})
		case 2: // sample: location_id, value
			var smp sample
			var vals []uint64
			if err := pbFields(b, func(f int, v uint64, pb []byte) error {
				switch f {
				case 1:
					return varints(v, pb, &smp.locs)
				case 2:
					return varints(v, pb, &vals)
				}
				return nil
			}); err != nil {
				return err
			}
			for _, v := range vals {
				smp.vals = append(smp.vals, int64(v))
			}
			samples = append(samples, smp)
		case 4: // location: id, line{function_id}
			var id uint64
			var fns []uint64
			if err := pbFields(b, func(f int, v uint64, lb []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return pbFields(lb, func(lf int, lv uint64, _ []byte) error {
						if lf == 1 {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locFuncs[id] = fns
		case 5: // function: id, name
			var id, name uint64
			if err := pbFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			}); err != nil {
				return err
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	valueIdx := len(typeNames) - 1 // runtime/pprof puts cpu nanoseconds last
	for i, n := range typeNames {
		if n < uint64(len(strs)) && strs[n] == "cpu" {
			valueIdx = i
		}
	}
	name := func(fn uint64) string {
		if si, ok := funcName[fn]; ok && si < uint64(len(strs)) {
			return strs[si]
		}
		return ""
	}
	var total float64
	byPkg := make(map[string]float64)
	for _, smp := range samples {
		if valueIdx < 0 || valueIdx >= len(smp.vals) {
			continue
		}
		v := float64(smp.vals[valueIdx])
		total += v
	stack:
		for _, loc := range smp.locs {
			for _, fn := range locFuncs[loc] {
				if sym := name(fn); strings.HasPrefix(sym, prefix) {
					byPkg[packageOf(sym)] += v
					break stack
				}
			}
		}
	}
	if total == 0 {
		return map[string]float64{}, nil
	}
	for k, v := range byPkg {
		byPkg[k] = v / total
	}
	return byPkg, nil
}

// packageOf returns the import path of a symbol such as
// "repro/internal/kernel.(*Kernel).Tick".
func packageOf(sym string) string {
	slash := strings.LastIndexByte(sym, '/')
	if dot := strings.IndexByte(sym[slash+1:], '.'); dot >= 0 {
		return sym[:slash+1+dot]
	}
	return sym
}

// pbFields walks the fields of one protobuf message, handing varint
// fields as v and length-delimited fields as b.
func pbFields(buf []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := binary.Uvarint(buf)
		if n <= 0 {
			return errors.New("bad field key")
		}
		buf = buf[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(buf)
			if n <= 0 {
				return errors.New("bad varint")
			}
			buf = buf[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(buf) < 8 {
				return errors.New("short fixed64")
			}
			buf = buf[8:]
		case 2:
			l, n := binary.Uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return errors.New("bad length")
			}
			b := buf[n : n+int(l)]
			buf = buf[n+int(l):]
			if err := fn(field, 0, b); err != nil {
				return err
			}
		case 5:
			if len(buf) < 4 {
				return errors.New("short fixed32")
			}
			buf = buf[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
	}
	return nil
}

// pbPacked decodes a packed repeated varint field.
func pbPacked(b []byte, fn func(uint64)) error {
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		fn(v)
		b = b[n:]
	}
	return nil
}

// quantile returns the nearest-rank q-quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

func sortedCopy(v []float64) []float64 {
	out := append([]float64(nil), v...)
	sort.Float64s(out)
	return out
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}
