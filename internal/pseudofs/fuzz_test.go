package pseudofs

import "testing"

// FuzzMatchPattern checks the compiled matcher against the segment-walk
// reference on arbitrary pattern/path pairs, alone and as the second
// entry of a pattern list.
func FuzzMatchPattern(f *testing.F) {
	f.Add("/proc/**", "/proc/a/b")
	f.Add("/proc/*/x", "/proc/1/x")
	f.Add("/a/*b*/c", "/a/xbyz/c")
	f.Add("", "")
	f.Add("/**", "/")
	f.Add("/a*a", "/a")
	f.Add("/x/**/y", "/x/a/y")
	f.Add("/sys/devices/system/cpu/cpu*/cpuidle/state*/usage", "/sys/devices/system/cpu/cpu3/cpuidle/state2/usage")
	f.Fuzz(func(t *testing.T, pattern, path string) {
		want := refMatchPattern(pattern, path)
		if got := Match(pattern, path); got != want {
			t.Fatalf("Match(%q, %q) = %v, reference %v", pattern, path, got, want)
		}
		list := []string{"/\x00never", pattern}
		if got, wantIdx := Compile(list...).Index(path), refIndex(list, path); got != wantIdx {
			t.Fatalf("Compile(_, %q).Index(%q) = %d, want %d", pattern, path, got, wantIdx)
		}
	})
}
