// Package fastrand provides a deterministic pseudo-random generator whose
// output stream is bit-identical to the standard library's
// math/rand.New(rand.NewSource(seed)) generator, but without interface
// dispatch or locking, and with all methods eligible for inlining into hot
// loops.
//
// # Why a replica instead of math/rand
//
// The simulation kernel draws roughly 850 jitter values per server tick; a
// Fig. 3 world performs on the order of 10^8 draws. Every one of those
// draws must reproduce math/rand's sequence exactly, because the values
// feed rendered pseudo-file counters that are covered by the repo's
// byte-identity contract. math/rand's *Rand routes every call through a
// Source64 interface and (for the default source) a mutex-free but
// devirtualization-hostile call chain. This package re-implements the same
// additive lagged-Fibonacci generator (x_i = x_{i-273} + x_{i-607} mod 2^64)
// as a concrete struct with value-receiver-free, branch-light methods.
//
// # Seeding without the cooked table
//
// math/rand seeds its 607-word state vector as vec[i] = u_i ^ rngCooked[i]
// with tap = 0 and feed = 607-273. u_i packs three consecutive values of
// the Park–Miller chain x ← 48271·x mod (2^31−1), started from the
// reduced seed after 20 discarded steps; rngCooked is an internal
// precomputed table produced by ~7.8e12 warm-up iterations at package
// generation time, not practical to recompute and not exported. Instead of
// vendoring it, the package recovers it once, at init, through the public
// API: it draws 607 Uint64 values from rand.NewSource(1). Because the
// generator's state is a sliding window over its own output, those 607
// outputs ARE the full post-draw state (output i lands at
// vec[(333-i) mod 607], and after exactly 607 draws the tap/feed indices
// return to their initial positions). Running the recurrence BACKWARD 607
// steps (vec[feed] -= vec[tap]; advance indices) recovers seed 1's
// pre-draw state, and XORing out seed 1's chain leaves the cooked table.
//
// New then builds the state directly: the chain for its own seed, XORed
// with the recovered table. It costs 1,841 multiply-reduce steps and no
// math/rand call, so the replica's very first native draw is stdlib
// draw 0 and Uint64 needs no replay branch. The table is immutable once
// init returns.
//
// Equivalence for every exported method is enforced by property tests in
// fastrand_test.go and rows_test.go across seeds and interleaved method
// sequences.
//
// # SIMD path
//
// On amd64 CPUs with AVX2 (checked once at init through CPUID, with XGETBV
// confirming the OS saves YMM state), AddScaledJitterRows and
// AddScaledJitter2Rows draw each wrap-free run of the lag window four
// draws at a time in assembly (fastrand_amd64.s). Every result stays
// bit-identical to the pure-Go loops, which remain the only path on other
// CPUs and architectures and the reference the tests compare against:
//
//   - Lanes. Draw j reads vec[feed-1-j] and vec[tap-1-j], so four
//     consecutive draws are one 32-byte load from each window and one
//     VPADDQ. Their inputs are independent: a draw reads a word written
//     by an earlier draw only 273 draws later. The earliest draw sits in
//     the highest lane; a VPERMPD puts the lanes back in slot order (for
//     row pairs, the same permutation splits the usage and time draws).
//   - Exact conversion. Float64 is float64(Int63) · 2^-63, and
//     CVTSI2SD rounds the 63-bit integer once, to nearest even. AVX2 has
//     no 64-bit integer convert, so the loop places the high and low
//     32-bit halves in the mantissas of 2^84 and 2^52, subtracts
//     2^84+2^52 from the first (exact) and adds the second: one rounding,
//     the same one. Scaling by a power of two is exact, so f*2 is the
//     converted value times 2^-62.
//   - No FMA. The arithmetic is VMULPD, VSUBPD and VADDPD in the order of
//     the scalar expression scale * (1 + (f*2-1)*amp) + dst; a fused
//     multiply-add would skip a rounding and change bits. The Go compiler
//     does not fuse these operations on amd64 either.
//   - Retries. An Int63 of 2^63-512 or more rounds to 2^63, so Float64
//     would retry it. The loop tests each group of four with VPCMPGTQ
//     before storing anything; a group holding a retry is left undrawn
//     and the pure-Go loop takes over for the rest of the run, so the
//     retry happens exactly where Float64 would make it.
//
// # Concurrency
//
// A *Rand is not safe for concurrent use. The simulation substrate gives
// each server its own generator and ticks servers on disjoint shards, so
// no sharing occurs (see ARCHITECTURE.md, "tick pipeline").
package fastrand

import (
	"math/bits"
	"math/rand"
)

const (
	rngLen = 607
	rngTap = 273
)

// Rand is a drop-in, stream-identical replacement for
// *math/rand.Rand created via rand.New(rand.NewSource(seed)).
type Rand struct {
	tap  int32
	feed int32
	vec  [rngLen]uint64

	// readVal/readPos implement Read's 7-bytes-per-Int63 buffering,
	// mirroring math/rand.Rand exactly.
	readVal int64
	readPos int8
}

// New returns a generator whose stream is bit-identical to
// rand.New(rand.NewSource(seed)).
func New(seed int64) *Rand {
	r := &Rand{tap: 0, feed: rngLen - rngTap}
	seedVec(&r.vec, seed)
	for i := range r.vec {
		r.vec[i] ^= cooked[i]
	}
	return r
}

// int32max is the Park–Miller modulus 2^31−1, a Mersenne prime.
const int32max = 1<<31 - 1

// seedrand advances math/rand's seeding chain: x·48271 mod 2^31−1. The
// product stays below 2^47, and one fold of the high bits onto the low
// ones (2^31 ≡ 1) plus one conditional subtraction reduces it exactly.
func seedrand(x uint64) uint64 {
	x *= 48271
	x = x&int32max + x>>31
	if x >= int32max {
		x -= int32max
	}
	return x
}

// seedVec writes math/rand's seed chain for seed into vec: the state
// rngSource.Seed builds before XORing in rngCooked.
func seedVec(vec *[rngLen]uint64, seed int64) {
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	x := uint64(seed)
	for i := 0; i < 20; i++ {
		x = seedrand(x)
	}
	for i := range vec {
		x = seedrand(x)
		u := x << 40
		x = seedrand(x)
		u ^= x << 20
		x = seedrand(x)
		vec[i] = u ^ x
	}
}

// cooked is math/rand's rngCooked table, recovered at init (see the
// package doc, "Seeding without the cooked table").
var cooked = recoverCooked()

func recoverCooked() *[rngLen]uint64 {
	const seed = 1
	src := rand.NewSource(seed).(rand.Source64)
	var vec [rngLen]uint64
	// Initial positions inside math/rand's rngSource after Seed():
	// tap = 0, feed = rngLen - rngTap = 334. Each Uint64() first
	// decrements both (wrapping), computes x = vec[feed] + vec[tap],
	// stores x at vec[feed] and returns it. So output i sits at index
	// (334 - 1 - i) mod 607 = (333 - i) mod 607, and after 607 outputs
	// tap/feed are back at 0/334 — the drawn window IS the state.
	for i := 0; i < rngLen; i++ {
		j := 333 - i
		if j < 0 {
			j += rngLen
		}
		vec[j] = src.Uint64()
	}
	// Undo the 607 draws to recover the pre-draw state. Reverse of a
	// forward step (with indices currently at post-step positions):
	// vec[feed] -= vec[tap], then advance tap and feed by one.
	tap, feed := 0, rngLen-rngTap
	for i := 0; i < rngLen; i++ {
		vec[feed] -= vec[tap]
		tap++
		if tap >= rngLen {
			tap -= rngLen
		}
		feed++
		if feed >= rngLen {
			feed -= rngLen
		}
	}
	// The pre-draw state is chain ^ cooked; XOR the chain back out.
	var chain [rngLen]uint64
	seedVec(&chain, seed)
	for i := range vec {
		vec[i] ^= chain[i]
	}
	return &vec
}

// Uint64 returns a pseudo-random 64-bit value.
func (r *Rand) Uint64() uint64 {
	tap, feed := r.tap-1, r.feed-1
	if tap < 0 {
		tap += rngLen
	}
	if feed < 0 {
		feed += rngLen
	}
	x := r.vec[feed] + r.vec[tap]
	r.vec[feed] = x
	r.tap, r.feed = tap, feed
	return x
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (r *Rand) Int63() int64 { return int64(r.Uint64() & (1<<63 - 1)) }

// Uint32 returns a pseudo-random 32-bit value.
func (r *Rand) Uint32() uint32 { return uint32(r.Int63() >> 31) }

// Int31 returns a non-negative pseudo-random 31-bit integer.
func (r *Rand) Int31() int32 { return int32(r.Int63() >> 32) }

// Float64 returns a pseudo-random number in the half-open interval
// [0.0, 1.0), matching math/rand's retry-on-1.0 behavior exactly.
//
// The retry happens when Int63 is 2^63-512 or more: those 512 of the 2^63
// values round up to 2^63, so f == 1 is reachable, with probability
// 2^-54 per draw. The retry loop lives in a separate method: keeping it
// out of this body keeps Float64 — and its callers like
// kernel.(*Kernel).jitter — within the compiler's inlining budget, which
// matters at ~850 draws per server tick.
func (r *Rand) Float64() float64 {
	// math/rand computes Int63() / 2^63; multiplying by the exactly
	// representable 2^-63 is bit-identical (scaling by a power of two is
	// exact, and no draw can reach the subnormal range) and trades the
	// ~4× slower FDIV for an FMUL.
	f := float64(r.Int63()) * (1.0 / (1 << 63))
	if f == 1 {
		return r.float64Retry()
	}
	return f
}

// float64Retry redraws until the scaled value is below 1. Split out of
// Float64 so the hot path has no loop (see Float64).
func (r *Rand) float64Retry() float64 {
	for {
		f := float64(r.Int63()) * (1.0 / (1 << 63))
		if f != 1 {
			return f
		}
	}
}

// AddScaledJitterRows draws Float64 values f and accumulates a jitter term
// into a struct-of-arrays block: dst holds len(scales) consecutive rows of
// cols elements each (len(dst) == cols*len(scales)), and row r receives
//
//	dst[r*cols+c] += scales[r] * (1 + (f*2-1)*amp)
//
// with draws consumed in row-major order, exactly the stream of len(dst)
// Float64 calls. The expression is kernel.jitter's body verbatim with the
// row's common factor hoisted as the scale. Fusing the draw with the
// accumulate keeps tap/feed in registers for the whole block and needs no
// scratch buffer; one call covers the kernel tick's widest fan-out, its
// 17 interrupt/softirq rows per server. A single row (cols == len(dst))
// is the plain per-CPU fan-out.
func (r *Rand) AddScaledJitterRows(dst []float64, cols int, scales []float64, amp float64) {
	if len(dst) != cols*len(scales) {
		panic("fastrand: AddScaledJitterRows rows/cols mismatch")
	}
	if useSIMD && cols >= 4 {
		r.jitterRowsSIMD(dst, cols, scales, amp)
		return
	}
	r.jitterRows(dst, cols, scales, amp, 0, len(dst))
}

// checkState panics unless both lag-window indices lie inside the state
// vector. The invariant cannot fail on a Rand built by New, and the
// assembly loops, which read whole windows below the indices unchecked,
// rely on it.
func (r *Rand) checkState() {
	if uint(r.tap) >= rngLen || uint(r.feed) >= rngLen {
		panic("fastrand: corrupt generator state")
	}
}

// jitterRowsSIMD drives AddScaledJitterRows through the AVX2 loop, one
// call per wrap-free run of the lag window, spanning row boundaries. The
// pure-Go loop draws the rest of each run (fewer than four draws, or from
// a group holding a retry on) and the wrap step after it.
func (r *Rand) jitterRowsSIMD(dst []float64, cols int, scales []float64, amp float64) {
	r.checkState()
	for i := 0; i < len(dst); {
		tap, feed := int(r.tap), int(r.feed)
		n := min(tap, feed, len(dst)-i)
		k := 0
		if n >= 4 {
			row := i / cols
			k = jitterRowsAVX2(&r.vec[feed-n], &r.vec[tap-n], &dst[i], n,
				&scales[row], (row+1)*cols-i, cols, amp)
			r.tap, r.feed = int32(tap-k), int32(feed-k)
			i += k
		}
		m := min(len(dst)-i, n-k+1)
		r.jitterRows(dst, cols, scales, amp, i, m)
		i += m
	}
}

// jitterRows is AddScaledJitterRows' pure-Go loop over the count slots of
// dst starting at slot i.
func (r *Rand) jitterRows(dst []float64, cols int, scales []float64, amp float64, i, count int) {
	tap, feed := int(r.tap), int(r.feed)
	// The generator invariant keeps both indices inside the state vector;
	// asserting it once up front (it cannot fire on a Rand built by New)
	// lets the compiler drop the bounds checks on the lag windows below.
	if uint(tap) >= rngLen || uint(feed) >= rngLen {
		panic("fastrand: corrupt generator state")
	}
	for count > 0 {
		row := i / cols
		end := min((row+1)*cols, i+count)
		count -= end - i
		scale := scales[row]
		for i < end {
			// Between wraps both indices only decrement, so a run of
			// min(tap, feed) draws needs no wrap branches at all.
			n := min(tap, feed, end-i)
			if n <= 0 {
				// One draw with full wrap handling (an index at 0 wraps to
				// rngLen-1 because the decrement happens before use).
				tap--
				if tap < 0 {
					tap = rngLen - 1
				}
				feed--
				if feed < 0 {
					feed = rngLen - 1
				}
				x := r.vec[feed] + r.vec[tap]
				r.vec[feed] = x
				// Identical to Float64: Int63 scaling with retry-on-1.0; a
				// rejected draw simply doesn't advance i.
				f := float64(int64(x&(1<<63-1))) * (1.0 / (1 << 63))
				if f != 1 {
					dst[i] += scale * (1 + (f*2-1)*amp)
					i++
				}
				continue
			}
			// Reslicing the two lag windows to exactly n elements lets the
			// compiler drop the per-draw vec bounds checks. The windows
			// alias the same backing array at the generator's tap distance,
			// so writes at higher m are read back at lower m exactly as the
			// in-place form did. The destination window is pre-sliced to n
			// too, and the loop runs optimistically: with no retry, draw
			// n-1-j lands in d[j], a pure induction-variable pairing the
			// compiler proves in bounds on both sides. A retry (probability
			// 2^-54 per draw) breaks out with the stream position
			// reconciled and lets the outer loop re-chunk — same draws,
			// same order, same sums.
			vt := r.vec[tap-n : tap][:n]
			vf := r.vec[feed-n : feed][:n]
			d := dst[i : i+n][:n]
			j := 0
			for ; j < n; j++ {
				m := n - 1 - j
				x := vf[m] + vt[m]
				vf[m] = x
				f := float64(int64(x&(1<<63-1))) * (1.0 / (1 << 63))
				if f == 1 {
					break
				}
				d[j] += scale * (1 + (f*2-1)*amp)
			}
			if j == n {
				i += n
				tap -= n
				feed -= n
				continue
			}
			// Retry at draw j: that draw advanced the lag window but filled
			// no slot; j slots were filled before it.
			i += j
			tap -= j + 1
			feed -= j + 1
		}
	}
	r.tap, r.feed = int32(tap), int32(feed)
}

// AddScaledJitter2Rows is the paired form of AddScaledJitterRows: ab holds
// len(scaleA) row *pairs* — for pair p, an "a" row at ab[(2p)*cols:] and a
// "b" row at ab[(2p+1)*cols:] — and each column of each pair draws two
// consecutive values f1, f2:
//
//	a[c] += scaleA[p] * (1 + (f1*2-1)*amp)
//	b[c] += scaleB[p] * (1 + (f2*2-1)*amp)
//
// consuming exactly the stream of 2·cols·len(scaleA) Float64 calls, pairs
// in order, columns in order, f1 before f2. The kernel's cpuidle update
// (4 C-states × usage/time rows, two draws per CPU) is the intended
// caller.
func (r *Rand) AddScaledJitter2Rows(ab []float64, cols int, scaleA, scaleB []float64, amp float64) {
	if len(scaleA) != len(scaleB) {
		panic("fastrand: AddScaledJitter2Rows scale length mismatch")
	}
	if len(ab) != 2*cols*len(scaleA) {
		panic("fastrand: AddScaledJitter2Rows rows/cols mismatch")
	}
	if useSIMD {
		r.jitter2RowsSIMD(ab, cols, scaleA, scaleB, amp)
		return
	}
	r.jitter2Rows(ab, cols, scaleA, scaleB, amp, 0, cols*len(scaleA))
}

// jitter2RowsSIMD drives AddScaledJitter2Rows through the AVX2 loop as
// jitterRowsSIMD does, counting in columns (two draws each) over all pairs
// in order. Handing the pure-Go loop whole columns keeps every vector call
// on a column boundary, where the loop needs it.
func (r *Rand) jitter2RowsSIMD(ab []float64, cols int, scaleA, scaleB []float64, amp float64) {
	r.checkState()
	total := cols * len(scaleA)
	for q := 0; q < total; {
		tap, feed := int(r.tap), int(r.feed)
		n := min(tap, feed, 2*(total-q))
		k := 0
		if n >= 4 {
			p, c := q/cols, q%cols
			k = jitter2RowsAVX2(&r.vec[feed-n], &r.vec[tap-n], &ab[2*p*cols+c], n,
				&scaleA[p], &scaleB[p], cols-c, cols, amp)
			r.tap, r.feed = int32(tap-k), int32(feed-k)
			q += k / 2
		}
		// Enough columns to take the rest of the run and the wrap step.
		m := min(total-q, (n-k)/2+1)
		r.jitter2Rows(ab, cols, scaleA, scaleB, amp, q, m)
		q += m
	}
}

// jitter2Rows is AddScaledJitter2Rows' pure-Go loop over the count columns
// starting at column q, counted over all pairs in order (pair q/cols,
// column q%cols).
func (r *Rand) jitter2Rows(ab []float64, cols int, scaleA, scaleB []float64, amp float64, q, count int) {
	tap, feed := int(r.tap), int(r.feed)
	if uint(tap) >= rngLen || uint(feed) >= rngLen {
		panic("fastrand: corrupt generator state")
	}
	for count > 0 {
		p, i := q/cols, q%cols
		end := min(cols, i+count)
		q += end - i
		count -= end - i
		a := ab[2*p*cols : (2*p+1)*cols]
		b := ab[(2*p+1)*cols : (2*p+2)*cols]
		sa, sb := scaleA[p], scaleB[p]
		// A two-phase accumulator: phase 1 holds the pending usage draw f1
		// until the time draw completes the column and commits both
		// accumulates, a then b. The run budget n counts DRAWS (not
		// columns), so a mid-run retry can never overrun the wrap-free
		// run.
		phase := 0
		var f1 float64
		for i < end {
			n := min(tap, feed, 2*(end-i)-phase)
			if n <= 0 {
				tap--
				if tap < 0 {
					tap = rngLen - 1
				}
				feed--
				if feed < 0 {
					feed = rngLen - 1
				}
				x := r.vec[feed] + r.vec[tap]
				r.vec[feed] = x
				f := float64(int64(x&(1<<63-1))) * (1.0 / (1 << 63))
				if f == 1 {
					continue // retry: redraw the same phase
				}
				if phase == 0 {
					f1, phase = f, 1
				} else {
					a[i] += sa * (1 + (f1*2-1)*amp)
					b[i] += sb * (1 + (f*2-1)*amp)
					i++
					phase = 0
				}
				continue
			}
			// Resliced lag windows as in jitterRows: bounds-check-free
			// draws, aliasing preserved through the shared backing array.
			vt := r.vec[tap-n : tap][:n]
			vf := r.vec[feed-n : feed][:n]
			for m := n - 1; m >= 0; m-- {
				x := vf[m] + vt[m]
				vf[m] = x
				f := float64(int64(x&(1<<63-1))) * (1.0 / (1 << 63))
				if f == 1 {
					continue
				}
				if phase == 0 {
					f1, phase = f, 1
				} else {
					a[i] += sa * (1 + (f1*2-1)*amp)
					b[i] += sb * (1 + (f*2-1)*amp)
					i++
					phase = 0
				}
			}
			tap -= n
			feed -= n
		}
	}
	r.tap, r.feed = int32(tap), int32(feed)
}

// State is an opaque copy of a generator's full stream position — the
// 607-word lag window, the tap/feed indices, and Read's byte buffer. It is
// a plain value: assignment copies it, and no aliasing ties it to the Rand
// it came from. Snapshot/Restore of simulated worlds capture RNG stream
// positions with it.
type State struct {
	r Rand
}

// Save captures the generator's complete state.
func (r *Rand) Save() State { return State{r: *r} }

// Restore rewinds the generator to a previously saved state. The next draw
// after Restore returns exactly what the next draw after Save would have.
func (r *Rand) Restore(s State) { *r = s.r }

// Int31n returns a non-negative pseudo-random number in [0,n).
// It panics if n <= 0. The rejection-sampling structure matches
// math/rand exactly so the consumed stream is identical.
func (r *Rand) Int31n(n int32) int32 {
	if n <= 0 {
		panic("invalid argument to Int31n")
	}
	if n&(n-1) == 0 { // n is power of two
		return r.Int31() & (n - 1)
	}
	max := int32((1 << 31) - 1 - (1<<31)%uint32(n))
	v := r.Int31()
	for v > max {
		v = r.Int31()
	}
	return v % n
}

// FillInt31n writes len(dst) consecutive Int31n(n) draws into dst: the
// same values, consuming the same stream positions, as len(dst) Int31n
// (or Intn) calls. It panics if n <= 0.
//
// Int31n pays two hardware divisions per call, one for its rejection
// threshold and one for the final modulo. The batch computes the threshold
// once and reduces by multiply-shift: with M = ceil(2^64/n), v mod n is
// the high word of (M·v mod 2^64)·n, exactly, for every 32-bit v and n
// (Lemire, Kaser and Kurz, "Faster remainder by direct computation", 2019).
func (r *Rand) FillInt31n(dst []int32, n int32) {
	if n <= 0 {
		panic("invalid argument to FillInt31n")
	}
	if n&(n-1) == 0 { // n is power of two
		for i := range dst {
			dst[i] = r.Int31() & (n - 1)
		}
		return
	}
	max := int32((1 << 31) - 1 - (1<<31)%uint32(n))
	m := ^uint64(0)/uint64(n) + 1
	for i := range dst {
		v := r.Int31()
		for v > max {
			v = r.Int31()
		}
		mod, _ := bits.Mul64(m*uint64(v), uint64(n))
		dst[i] = int32(mod)
	}
}

// Int63n returns a non-negative pseudo-random number in [0,n).
// It panics if n <= 0.
func (r *Rand) Int63n(n int64) int64 {
	if n <= 0 {
		panic("invalid argument to Int63n")
	}
	if n&(n-1) == 0 { // n is power of two
		return r.Int63() & (n - 1)
	}
	max := int64((1 << 63) - 1 - (1<<63)%uint64(n))
	v := r.Int63()
	for v > max {
		v = r.Int63()
	}
	return v % n
}

// Intn returns a non-negative pseudo-random number in [0,n).
// It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("invalid argument to Intn")
	}
	if n <= 1<<31-1 {
		return int(r.Int31n(int32(n)))
	}
	return int(r.Int63n(int64(n)))
}

// Perm returns, as a slice of n ints, a pseudo-random permutation of
// the integers in the half-open interval [0,n).
func (r *Rand) Perm(n int) []int {
	m := make([]int, n)
	// Matches math/rand.(*Rand).Perm: in-loop Fisher-Yates with
	// Intn(i+1) draws starting at i=0.
	for i := 0; i < n; i++ {
		j := r.Intn(i + 1)
		m[i] = m[j]
		m[j] = i
	}
	return m
}

// Read generates len(p) random bytes and writes them into p. It always
// returns len(p) and a nil error. The byte stream matches
// math/rand.(*Rand).Read for the same seed and call sequence.
func (r *Rand) Read(p []byte) (n int, err error) {
	pos := r.readPos
	val := r.readVal
	for n = 0; n < len(p); n++ {
		if pos == 0 {
			val = r.Int63()
			pos = 7
		}
		p[n] = byte(val)
		val >>= 8
		pos--
	}
	r.readPos = pos
	r.readVal = val
	return
}
