package pseudofs_test

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/pseudofs"
)

// The compiled matcher against the segment-walk reference over the real
// inputs: every path of a 24-core tree crossed with every pattern the
// repository matches paths against (the dependency table and the Table I,
// Table II and matrix registries), plus the outputs built on it: Dep tags,
// RollUp and Discover.

func diffFS(t *testing.T) *pseudofs.FS {
	t.Helper()
	k := kernel.New(kernel.Options{Hostname: "diff-host", Seed: 24, Cores: 24})
	return pseudofs.Build(k, pseudofs.DefaultHardware())
}

func registries() map[string][]core.Channel {
	return map[string][]core.Channel{
		"table1": core.TableIChannels(),
		"table2": core.TableIIChannels(),
		"matrix": core.MatrixChannels(),
	}
}

func TestCompiledMatchesReferenceOnTree(t *testing.T) {
	fs := diffFS(t)
	paths := fs.Paths()
	pats := pseudofs.DepTablePatterns()
	for _, chs := range registries() {
		for _, ch := range chs {
			pats = append(pats, ch.Paths...)
		}
	}
	// Probe paths beside the tree: prefixes, extensions and siblings.
	probes := append([]string(nil), paths...)
	for _, p := range paths[:len(paths):len(paths)] {
		probes = append(probes, p+"/x", p+"x", p[:len(p)-1])
	}
	matched := 0
	for _, pat := range pats {
		c := pseudofs.Compile(pat)
		for _, path := range probes {
			want := pseudofs.RefMatchPattern(pat, path)
			if got := c.Match(path); got != want {
				t.Fatalf("Compile(%q).Match(%q) = %v, reference %v", pat, path, got, want)
			}
			if want {
				matched++
			}
		}
	}
	if matched < len(paths) {
		t.Fatalf("only %d pattern/path matches over %d paths: the crossing is vacuous", matched, len(paths))
	}
	for _, path := range probes {
		if got, want := fs.Dep(path), pseudofs.RefDep(path); got != want {
			t.Errorf("Dep(%s) = %+v, reference %+v", path, got, want)
		}
	}
}

// refRollUpFiles is the per-channel file grouping of core.RollUp over the
// reference matcher.
func refRollUpFiles(channels []core.Channel, findings []core.Finding) [][]core.Finding {
	out := make([][]core.Finding, len(channels))
	for i, ch := range channels {
		for _, f := range findings {
			for _, pat := range ch.Paths {
				if pseudofs.RefMatchPattern(pat, f.Path) {
					out[i] = append(out[i], f)
					break
				}
			}
		}
	}
	return out
}

// refDiscover is core.Discover over the reference matcher.
func refDiscover(channels []core.Channel, findings []core.Finding) []core.Finding {
	var out []core.Finding
	for _, f := range findings {
		if f.Status != core.Identical && f.Status != core.Partial {
			continue
		}
		known := false
		for _, ch := range channels {
			for _, pat := range ch.Paths {
				known = known || pseudofs.RefMatchPattern(pat, f.Path)
			}
		}
		if !known {
			out = append(out, f)
		}
	}
	return out
}

func TestRollUpAndDiscoverMatchReference(t *testing.T) {
	fs := diffFS(t)
	// One finding per path, cycling through every status so each channel
	// sees a mix.
	var findings []core.Finding
	for i, p := range fs.Paths() {
		findings = append(findings, core.Finding{Path: p, Status: core.FileStatus(i % 7), Overlap: float64(i%3) / 2})
	}
	for name, chs := range registries() {
		reps := core.RollUp(chs, findings)
		want := refRollUpFiles(chs, findings)
		for i, rep := range reps {
			if !reflect.DeepEqual(rep.Files, want[i]) {
				t.Errorf("%s: RollUp %s files differ from the reference:\n got %v\nwant %v",
					name, rep.Channel.Name, rep.Files, want[i])
			}
		}
		if got, want := core.Discover(chs, findings), refDiscover(chs, findings); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Discover = %v, reference %v", name, got, want)
		}
	}
}
