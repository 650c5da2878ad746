package fastrand

// useSIMD routes the row kernels' wrap-free runs through the AVX2 loops in
// fastrand_amd64.s (see the package doc, "SIMD path"). It is decided once,
// from CPUID; the tests switch it off to run the pure-Go loops on the same
// host.
var useSIMD = hasAVX2()

// hasAVX2 reports whether the CPU has AVX2 and the OS saves the YMM
// registers across context switches.
func hasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	// XCR0 bits 1 and 2: the OS saves SSE and AVX state.
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}

//go:noescape
func jitterRowsAVX2(vf, vt *uint64, d *float64, n int, scales *float64, rowRem, cols int, amp float64) int

//go:noescape
func jitter2RowsAVX2(vf, vt *uint64, a *float64, n int, scaleA, scaleB *float64, colRem, cols int, amp float64) int

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)
