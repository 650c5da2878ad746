//go:build !amd64

package fastrand

// useSIMD is always false off amd64: the row kernels run their pure-Go
// loops only.
var useSIMD = false

func jitterRowsAVX2(vf, vt *uint64, d *float64, n int, scales *float64, rowRem, cols int, amp float64) int {
	panic("fastrand: no SIMD row kernel on this architecture")
}

func jitter2RowsAVX2(vf, vt *uint64, a *float64, n int, scaleA, scaleB *float64, colRem, cols int, amp float64) int {
	panic("fastrand: no SIMD row kernel on this architecture")
}
