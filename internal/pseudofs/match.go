package pseudofs

import "strings"

// Patterns is an ordered list of compiled Rule patterns. The glob language
// is parsed once, by Compile, instead of on every match: a fixed pattern
// list (the dependency table, a mount's policy, a channel registry) is
// tested against every path of a tree, so re-walking the pattern strings
// per (pattern, path) pair dominated cold-scan profiles.
//
// A Patterns value is immutable after Compile and safe for concurrent use.
type Patterns struct {
	list []pattern
}

// pattern is one compiled pattern.
//
// A subtree pattern ("root/**") matches root itself and every path below
// it; root is taken literally, '*' included. Any other pattern matches a
// path with the same number of '/'-separated segments whose segments
// match pairwise, '*' matching any run of characters within one segment.
type pattern struct {
	subtree bool
	// prefix is the literal text before the first '*' (the subtree root
	// of a subtree pattern, the whole pattern when it has no '*').
	prefix string
	// literal marks a pattern without '*': it matches only itself.
	literal bool
	// suffix is the literal text after the last '*'. Every match ends
	// with it: the last starred segment ends with its tail, and the
	// segments after it are literal.
	suffix string
	// skip is the length of prefix up to and including its last '/'. The
	// segments before it are literal and already matched by the prefix
	// test, so the segment walk starts there.
	skip int
	// segs holds the segment patterns from the one containing the first
	// '*' on, each split on '*' (a single part is a literal segment); a
	// match has exactly len(segs) segments after skip.
	segs [][]string
}

// Compile parses each pattern of the Rule glob language once. The result
// keeps the input order.
func Compile(patterns ...string) Patterns {
	ps := Patterns{list: make([]pattern, len(patterns))}
	for i, p := range patterns {
		ps.list[i] = compile(p)
	}
	return ps
}

func compile(p string) pattern {
	if root, ok := strings.CutSuffix(p, "/**"); ok {
		return pattern{subtree: true, prefix: root}
	}
	star := strings.IndexByte(p, '*')
	if star < 0 {
		return pattern{prefix: p, literal: true}
	}
	c := pattern{
		prefix: p[:star],
		suffix: p[strings.LastIndexByte(p, '*')+1:],
		skip:   strings.LastIndexByte(p[:star], '/') + 1,
	}
	for _, seg := range strings.Split(p[c.skip:], "/") {
		c.segs = append(c.segs, strings.Split(seg, "*"))
	}
	return c
}

// Match reports whether path matches any of the patterns.
func (ps Patterns) Match(path string) bool { return ps.Index(path) >= 0 }

// Index returns the position of the first pattern that matches path, or
// -1 when none does. The tests every match must pass run inline, cheapest
// first: equality for a literal pattern, then the literal suffix and
// prefix. Most (pattern, path) pairs of a tree fail one of them, and only
// a starred pattern whose prefix and suffix both hold walks the segments.
func (ps Patterns) Index(path string) int {
	for i := range ps.list {
		c := &ps.list[i]
		switch {
		case c.literal:
			if path == c.prefix {
				return i
			}
		case !strings.HasSuffix(path, c.suffix) || !strings.HasPrefix(path, c.prefix):
		case c.subtree:
			if len(path) == len(c.prefix) || path[len(c.prefix)] == '/' {
				return i
			}
		case c.walk(path[c.skip:]):
			return i
		}
	}
	return -1
}

// walk matches the segments of a starred pattern from the one holding its
// first '*' on; rest is the path after the literal segments before it.
func (c *pattern) walk(rest string) bool {
	last := len(c.segs) - 1
	for i, parts := range c.segs {
		sep := strings.IndexByte(rest, '/')
		if i == last {
			return sep < 0 && matchParts(parts, rest)
		}
		if sep < 0 || !matchParts(parts, rest[:sep]) {
			return false
		}
		rest = rest[sep+1:]
	}
	return false // unreachable: a starred pattern has at least one segment
}

// matchParts matches one path segment against one pattern segment split
// on '*'. The first part anchors as a prefix and the last as a suffix;
// the parts between match greedily left to right, which is exact for a
// language whose only wildcard is '*'.
func matchParts(parts []string, seg string) bool {
	if len(parts) == 1 {
		return parts[0] == seg
	}
	first, last := parts[0], parts[len(parts)-1]
	if !strings.HasPrefix(seg, first) {
		return false
	}
	seg = seg[len(first):]
	for _, mid := range parts[1 : len(parts)-1] {
		i := strings.Index(seg, mid)
		if i < 0 {
			return false
		}
		seg = seg[i+len(mid):]
	}
	return strings.HasSuffix(seg, last)
}

// Match reports whether path matches the rule pattern language ('*' within
// a segment, trailing "/**" for subtrees). It compiles the pattern on every
// call; callers that test one pattern list against many paths should
// Compile it once instead.
func Match(pat, path string) bool {
	return Patterns{list: []pattern{compile(pat)}}.Index(path) >= 0
}
