package fastrand

import (
	"math/rand"
	"testing"
)

// The row kernels have two paths on amd64: the AVX2 loops of
// fastrand_amd64.s and the pure-Go loops, which are also the only path
// everywhere else. Every test here runs on each path the host has, so the
// pure-Go loops stay checked on AVX2 hosts too.

// forEachPath runs f once with the SIMD path off and, where the CPU
// supports it, once with it on.
func forEachPath(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	simd := useSIMD
	defer func() { useSIMD = simd }()
	useSIMD = false
	t.Run("generic", f)
	if !simd {
		t.Log("no SIMD path on this host")
		return
	}
	useSIMD = true
	t.Run("simd", f)
}

// rowsShapes are rows×cols blocks for AddScaledJitterRows: the kernel's
// 17×24 irq/softirq block and its 1×24 softnet row, single rows of many
// lengths (the per-row fan-out), columns below the vector width, columns
// that are not a multiple of it, and runs long enough to wrap the lag
// window several times.
var rowsShapes = []struct{ rows, cols int }{
	{0, 8}, {1, 0}, {1, 1}, {1, 3}, {1, 8}, {1, 24}, {1, 100}, {1, 607},
	{17, 24}, {5, 3}, {7, 5}, {5, 6}, {3, 607}, {2, 304},
}

// pairShapes are pairs×cols blocks for AddScaledJitter2Rows: the kernel's
// 4×24 cpuidle block, single pairs of many lengths, one column per pair
// (every vector group then spans two pairs) and odd column counts.
var pairShapes = []struct{ pairs, cols int }{
	{0, 8}, {1, 0}, {1, 1}, {1, 5}, {1, 8}, {1, 24}, {1, 304},
	{4, 24}, {6, 1}, {3, 5}, {2, 307}, {5, 2},
}

func TestAddScaledJitterRowsEquivalence(t *testing.T) {
	forEachPath(t, func(t *testing.T) {
		for _, seed := range seeds {
			fr := New(seed)
			std := rand.New(rand.NewSource(seed))
			for _, shape := range rowsShapes {
				scales := make([]float64, shape.rows)
				for i := range scales {
					scales[i] = 0.5 + float64(i)*1.75
				}
				got := make([]float64, shape.rows*shape.cols)
				want := make([]float64, shape.rows*shape.cols)
				for i := range got {
					got[i] = float64(i) * 0.25 // non-zero accumulators
					want[i] = got[i]
				}
				fr.AddScaledJitterRows(got, shape.cols, scales, 0.1)
				for r := 0; r < shape.rows; r++ {
					for c := 0; c < shape.cols; c++ {
						want[r*shape.cols+c] += scales[r] * (1 + (std.Float64()*2-1)*0.1)
					}
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("seed %d shape %dx%d index %d: got %v want %v",
							seed, shape.rows, shape.cols, i, got[i], want[i])
					}
				}
				// Stream positions must line up afterwards too.
				if g, w := fr.Float64(), std.Float64(); g != w {
					t.Fatalf("seed %d after %dx%d: scalar draw diverged", seed, shape.rows, shape.cols)
				}
			}
		}
	})
}

func TestAddScaledJitter2RowsEquivalence(t *testing.T) {
	forEachPath(t, func(t *testing.T) {
		for _, seed := range seeds {
			fr := New(seed)
			std := rand.New(rand.NewSource(seed))
			for _, shape := range pairShapes {
				scaleA := make([]float64, shape.pairs)
				scaleB := make([]float64, shape.pairs)
				for i := range scaleA {
					scaleA[i] = 0.75 + float64(i)
					scaleB[i] = 1.5e6 / float64(i+1)
				}
				got := make([]float64, 2*shape.pairs*shape.cols)
				want := make([]float64, len(got))
				for i := range got {
					got[i] = 3.0 + float64(i)
					want[i] = got[i]
				}
				fr.AddScaledJitter2Rows(got, shape.cols, scaleA, scaleB, 0.05)
				for p := 0; p < shape.pairs; p++ {
					a := want[(2*p)*shape.cols : (2*p+1)*shape.cols]
					b := want[(2*p+1)*shape.cols : (2*p+2)*shape.cols]
					for c := 0; c < shape.cols; c++ {
						a[c] += scaleA[p] * (1 + (std.Float64()*2-1)*0.05)
						b[c] += scaleB[p] * (1 + (std.Float64()*2-1)*0.05)
					}
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("seed %d shape %dx%d index %d: got %v want %v",
							seed, shape.pairs, shape.cols, i, got[i], want[i])
					}
				}
				if g, w := fr.Float64(), std.Float64(); g != w {
					t.Fatalf("seed %d after %dx%d: scalar draw diverged", seed, shape.pairs, shape.cols)
				}
			}
		}
	})
}

// TestAddScaledJitterEquivalence checks the one-row case, the shape the
// kernel fans out per row: a single row of the block jitters exactly like
// one math/rand Float64 per column.
func TestAddScaledJitterEquivalence(t *testing.T) {
	forEachPath(t, func(t *testing.T) {
		for _, seed := range seeds {
			fr := New(seed)
			std := rand.New(rand.NewSource(seed))
			for _, n := range []int{0, 1, 8, 24, 3, 607, 100} {
				scale, amp := 3.25, 0.1
				got := make([]float64, n)
				want := make([]float64, n)
				for i := range got {
					got[i] = float64(i) * 0.5 // non-zero accumulators
					want[i] = float64(i) * 0.5
				}
				fr.AddScaledJitterRows(got, n, []float64{scale}, amp)
				for i := range want {
					want[i] += scale * (1 + (std.Float64()*2-1)*amp)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("seed %d n %d index %d: got %v want %v", seed, n, i, got[i], want[i])
					}
				}
				// Stream positions must line up afterwards too.
				if g, w := fr.Float64(), std.Float64(); g != w {
					t.Fatalf("seed %d after n %d: scalar draw diverged", seed, n)
				}
			}
		}
	})
}

// TestAddScaledJitter2Equivalence checks the one-pair case: the two rows
// draw alternately, A then B, per column.
func TestAddScaledJitter2Equivalence(t *testing.T) {
	forEachPath(t, func(t *testing.T) {
		for _, seed := range seeds {
			fr := New(seed)
			std := rand.New(rand.NewSource(seed))
			for _, n := range []int{0, 1, 8, 24, 304, 5} {
				sa, sb, amp := 0.75, 1.5e6, 0.05
				got := make([]float64, 2*n)
				want := make([]float64, 2*n)
				for i := 0; i < n; i++ {
					got[i], want[i] = 2.0, 2.0
					got[n+i], want[n+i] = 7.0, 7.0
				}
				fr.AddScaledJitter2Rows(got, n, []float64{sa}, []float64{sb}, amp)
				for i := 0; i < n; i++ {
					want[i] += sa * (1 + (std.Float64()*2-1)*amp)
					want[n+i] += sb * (1 + (std.Float64()*2-1)*amp)
				}
				for i := 0; i < n; i++ {
					if got[i] != want[i] || got[n+i] != want[n+i] {
						t.Fatalf("seed %d n %d index %d: got (%v,%v) want (%v,%v)",
							seed, n, i, got[i], got[n+i], want[i], want[n+i])
					}
				}
				if g, w := fr.Float64(), std.Float64(); g != w {
					t.Fatalf("seed %d after n %d: scalar draw diverged", seed, n)
				}
			}
		}
	})
}

// plant rewrites r's lag window so that the k-th draw from its current
// position returns target. Draw k adds the words at feed-1-k and
// tap-1-k (indices mod rngLen); for k < rngTap no earlier draw writes
// either of them, and plants at different k touch different words, so
// several plants can be made before drawing.
func plant(r *Rand, k int, target uint64) {
	if k < 0 || k >= rngTap {
		panic("plant: draw out of the lag distance")
	}
	tap := (int(r.tap) - 1 - k + rngLen) % rngLen
	feed := (int(r.feed) - 1 - k + rngLen) % rngLen
	r.vec[feed] = target - r.vec[tap]
}

// retryTargets are draws whose Int63 rounds to 2^63, so Float64 rejects
// them: the smallest and largest such Int63, and both again with the top
// bit (which Int63 drops) set.
var retryTargets = []uint64{1<<63 - 512, 1<<63 - 1, 1<<64 - 512, 1<<64 - 1}

// TestPlant checks the helper itself: the planted draws come out, and the
// value just below the retry range does not retry.
func TestPlant(t *testing.T) {
	r := New(5)
	for i := 0; i < 324; i++ {
		r.Uint64()
	}
	at := []int{0, 9, 10, 11, 272}
	for i, k := range at {
		plant(r, k, retryTargets[i%len(retryTargets)])
	}
	probe := *r
	for k := 0; k <= at[len(at)-1]; k++ {
		x := probe.Uint64()
		for i, pk := range at {
			if pk == k && x != retryTargets[i%len(retryTargets)] {
				t.Fatalf("draw %d = %#x, want the planted %#x", k, x, retryTargets[i%len(retryTargets)])
			}
		}
	}
	plant(r, 0, 1<<63-513)
	if f := r.Float64(); f != 1-1.0/(1<<53) {
		t.Fatalf("2^63-513 drew %v, want the largest Float64 below 1", f)
	}
}

// retryCases place retries relative to the vector groups, the rows and
// the lag-window wraps. From a new generator draw 0 is a wrap step; the
// row kernel's vector groups then start at draw 1 (draws 1–4, 5–8, …) and
// the pair kernel's, which hands whole columns to the pure-Go loop, at
// draw 2. skip draws move the generator first: after 324 draws from a new
// generator, feed is 10, so draw 10 is a wrap step.
type retryCase struct {
	name string
	skip int
	at   []int
}

var retryCases = []retryCase{
	{"on a wrap step at the first draw", 0, []int{0}},
	{"first draw of a vector run", 1, []int{0}},
	{"inside a group", 0, []int{3}},
	{"last of a group", 0, []int{4}},
	{"first of a group", 0, []int{5}},
	{"two in a row across groups", 0, []int{4, 5}},
	{"two in a row inside a group", 0, []int{6, 7}},
	{"row's last column", 0, []int{23}},
	{"next row's first column", 0, []int{24}},
	{"pair's last column", 0, []int{46, 47}},
	{"before a wrap", 324, []int{9}},
	{"at a wrap", 324, []int{10}},
	{"around a wrap", 324, []int{8, 10, 11}},
	{"late", 100, []int{150, 151, 200}},
}

func TestJitterRowsRetry(t *testing.T) {
	forEachPath(t, func(t *testing.T) {
		for _, tc := range retryCases {
			for _, shape := range []struct{ rows, cols int }{{17, 24}, {1, 24}, {3, 7}} {
				for ti, target := range retryTargets {
					r := New(int64(41 + ti))
					for i := 0; i < tc.skip; i++ {
						r.Uint64()
					}
					for _, k := range tc.at {
						plant(r, k, target)
					}
					ref := *r
					scales := make([]float64, shape.rows)
					for i := range scales {
						scales[i] = 1 + float64(i)
					}
					got := make([]float64, shape.rows*shape.cols)
					want := make([]float64, len(got))
					r.AddScaledJitterRows(got, shape.cols, scales, 0.1)
					for i := range want {
						want[i] += scales[i/shape.cols] * (1 + (ref.Float64()*2-1)*0.1)
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("%s, %dx%d, target %#x: slot %d = %v, want %v",
								tc.name, shape.rows, shape.cols, target, i, got[i], want[i])
						}
					}
					if g, w := r.Uint64(), ref.Uint64(); g != w {
						t.Fatalf("%s, %dx%d, target %#x: stream position diverged",
							tc.name, shape.rows, shape.cols, target)
					}
				}
			}
		}
	})
}

func TestJitter2RowsRetry(t *testing.T) {
	cases := append(retryCases[:len(retryCases):len(retryCases)],
		retryCase{"phase 1", 0, []int{1}},
		retryCase{"phase 1 inside a group", 0, []int{9}},
		retryCase{"phase 1 at a wrap", 325, []int{9}})
	forEachPath(t, func(t *testing.T) {
		for _, tc := range cases {
			for _, shape := range []struct{ pairs, cols int }{{4, 24}, {1, 24}, {5, 3}, {9, 1}} {
				for ti, target := range retryTargets {
					r := New(int64(43 + ti))
					for i := 0; i < tc.skip; i++ {
						r.Uint64()
					}
					for _, k := range tc.at {
						plant(r, k, target)
					}
					ref := *r
					scaleA := make([]float64, shape.pairs)
					scaleB := make([]float64, shape.pairs)
					for i := range scaleA {
						scaleA[i] = 2 + float64(i)
						scaleB[i] = 1e6 / float64(i+1)
					}
					got := make([]float64, 2*shape.pairs*shape.cols)
					want := make([]float64, len(got))
					r.AddScaledJitter2Rows(got, shape.cols, scaleA, scaleB, 0.05)
					for p := 0; p < shape.pairs; p++ {
						for c := 0; c < shape.cols; c++ {
							want[2*p*shape.cols+c] += scaleA[p] * (1 + (ref.Float64()*2-1)*0.05)
							want[(2*p+1)*shape.cols+c] += scaleB[p] * (1 + (ref.Float64()*2-1)*0.05)
						}
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("%s, %dx%d, target %#x: slot %d = %v, want %v",
								tc.name, shape.pairs, shape.cols, target, i, got[i], want[i])
						}
					}
					if g, w := r.Uint64(), ref.Uint64(); g != w {
						t.Fatalf("%s, %dx%d, target %#x: stream position diverged",
							tc.name, shape.pairs, shape.cols, target)
					}
				}
			}
		}
	})
}

// int31nBounds are FillInt31n bounds: powers of two (masked, never
// rejected), the kernel's 2001, and 2^30+1, whose rejection region is
// nearly half of all Int31 values, so rejections occur without planting.
var int31nBounds = []int32{1, 2, 3, 7, 8, 24, 2001, 1 << 30, 1<<30 + 1, 1<<31 - 1}

func TestFillInt31nEquivalence(t *testing.T) {
	for _, seed := range seeds {
		fr := New(seed)
		std := rand.New(rand.NewSource(seed))
		for _, n := range int31nBounds {
			for _, size := range []int{0, 1, 24, 100} {
				got := make([]int32, size)
				fr.FillInt31n(got, n)
				for i, v := range got {
					if w := std.Intn(int(n)); int(v) != w {
						t.Fatalf("seed %d n %d index %d: got %d want %d", seed, n, i, v, w)
					}
				}
				if g, w := fr.Int63(), std.Int63(); g != w {
					t.Fatalf("seed %d n %d size %d: stream position diverged", seed, n, size)
				}
			}
		}
	}
}

// TestFillInt31nRejection plants draws above Int31n's acceptance bound
// (Int31 = 2^31-1 is above it for every n that is not a power of two):
// first, inside the batch, twice in a row and on the last slot.
func TestFillInt31nRejection(t *testing.T) {
	const reject = uint64(1<<31-1) << 32
	for _, n := range []int32{3, 2001, 1<<31 - 1} {
		for _, at := range [][]int{{0}, {5}, {5, 6}, {24}} {
			r := New(int64(n))
			for _, k := range at {
				plant(r, k, reject)
			}
			ref := *r
			got := make([]int32, 24)
			r.FillInt31n(got, n)
			for i, v := range got {
				if w := ref.Intn(int(n)); int(v) != w {
					t.Fatalf("n %d plants %v index %d: got %d want %d", n, at, i, v, w)
				}
			}
			if g, w := r.Uint64(), ref.Uint64(); g != w {
				t.Fatalf("n %d plants %v: stream position diverged", n, at)
			}
		}
	}
}

// BenchmarkJitterRows times the kernel tick's 17×24 irq/softirq block and
// reports the cost per draw, on each path.
func BenchmarkJitterRows(b *testing.B) {
	const rows, cols = 17, 24
	dst := make([]float64, rows*cols)
	scales := make([]float64, rows)
	for i := range scales {
		scales[i] = 1 + float64(i)
	}
	benchPaths(b, rows*cols, func(r *Rand) { r.AddScaledJitterRows(dst, cols, scales, 0.1) })
}

// BenchmarkJitter2Rows times the kernel tick's 4×24 cpuidle row pairs.
func BenchmarkJitter2Rows(b *testing.B) {
	const pairs, cols = 4, 24
	ab := make([]float64, 2*pairs*cols)
	scaleA := []float64{1, 2, 3, 4}
	scaleB := []float64{5, 6, 7, 8}
	benchPaths(b, 2*pairs*cols, func(r *Rand) { r.AddScaledJitter2Rows(ab, cols, scaleA, scaleB, 0.05) })
}

func benchPaths(b *testing.B, draws int, call func(r *Rand)) {
	simd := useSIMD
	defer func() { useSIMD = simd }()
	run := func(b *testing.B) {
		r := New(1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			call(r)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*draws), "ns/draw")
	}
	if simd {
		b.Run("simd", run)
	}
	useSIMD = false
	b.Run("generic", run)
}
