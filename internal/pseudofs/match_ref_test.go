package pseudofs

import (
	"strings"
	"testing"
)

// refMatchPattern is the segment-walk matcher the compiled Patterns
// replaced, kept as the differential reference: it re-parses the pattern
// on every call, walking pattern and path one segment at a time.
func refMatchPattern(pattern, path string) bool {
	if sub, ok := strings.CutSuffix(pattern, "/**"); ok {
		return path == sub ||
			(len(path) > len(sub) && path[len(sub)] == '/' && strings.HasPrefix(path, sub))
	}
	for {
		pi := strings.IndexByte(pattern, '/')
		xi := strings.IndexByte(path, '/')
		if (pi < 0) != (xi < 0) {
			return false // different segment counts
		}
		if pi < 0 {
			return refMatchSegment(pattern, path)
		}
		if !refMatchSegment(pattern[:pi], path[:xi]) {
			return false
		}
		pattern, path = pattern[pi+1:], path[xi+1:]
	}
}

// refMatchSegment matches one path segment against one pattern segment:
// the literal before the first star anchors as a prefix, the literal after
// the last star as a suffix, and literals between stars match greedily
// left to right.
func refMatchSegment(pat, seg string) bool {
	star := strings.IndexByte(pat, '*')
	if star < 0 {
		return pat == seg
	}
	if !strings.HasPrefix(seg, pat[:star]) {
		return false
	}
	seg, pat = seg[star:], pat[star+1:]
	for {
		next := strings.IndexByte(pat, '*')
		if next < 0 {
			return strings.HasSuffix(seg, pat)
		}
		idx := strings.Index(seg, pat[:next])
		if idx < 0 {
			return false
		}
		seg, pat = seg[idx+next:], pat[next+1:]
	}
}

// refIndex is the first pattern refMatchPattern matches, or -1.
func refIndex(patterns []string, path string) int {
	for i, p := range patterns {
		if refMatchPattern(p, path) {
			return i
		}
	}
	return -1
}

// refDep is the dependency lookup as the table scan did it before the
// table was compiled: exact path first, then the reference matcher.
func refDep(path string) Dep {
	for _, r := range depTable {
		if r.Pattern == path || refMatchPattern(r.Pattern, path) {
			return r.Dep
		}
	}
	return depAll
}

// depTablePatterns returns the dependency table's patterns in table order.
func depTablePatterns() []string {
	out := make([]string, len(depTable))
	for i, r := range depTable {
		out[i] = r.Pattern
	}
	return out
}

// TestMountRuleIndexMatchesReference checks a mount's precomputed policy
// decisions, and its fallback for paths outside the tree, against the
// reference first-match scan, with the dependency table's patterns as the
// rule list.
func TestMountRuleIndexMatchesReference(t *testing.T) {
	k, fs := newHost(24)
	pats := depTablePatterns()
	rules := make([]Rule, len(pats))
	for i, p := range pats {
		rules[i] = Rule{Pattern: p, Do: Deny}
	}
	m := NewMount(fs, HostView(k), Policy{Rules: rules})
	paths := append(fs.Paths(), "/proc/nonexistent", "/sys/class/powercap/x/y", "/")
	for _, path := range paths {
		want := refIndex(pats, path)
		r, ok := m.lookupRule(path)
		if ok != (want >= 0) || (ok && r.Pattern != pats[want]) {
			t.Errorf("%s: rule %q (matched %v), reference index %d", path, r.Pattern, ok, want)
		}
	}
}
