package core

import (
	"errors"
	"strings"

	"repro/internal/parallel"
	"repro/internal/pseudofs"
)

// FileStatus classifies one pseudo-file after cross-validation.
type FileStatus int

// Cross-validation outcomes. Identical content in both contexts means the
// handler reached the same kernel data (case ② of Fig. 1 — a leak);
// Namespaced means the container got private data (case ①); Partial means
// the container content is a proper subset of host content (provider
// filtering, CC5-style); Masked means policy denied or emptied the read;
// Absent means the file does not exist in the container's tree; Volatile
// means the file changes on every read (e.g. random/uuid) so equality is
// undecidable by content diffing.
const (
	Unknown FileStatus = iota // zero value: path never validated
	Identical
	Namespaced
	Partial
	Masked
	Absent
	Volatile
)

// String implements fmt.Stringer.
func (s FileStatus) String() string {
	switch s {
	case Identical:
		return "identical"
	case Namespaced:
		return "namespaced"
	case Partial:
		return "partial"
	case Masked:
		return "masked"
	case Absent:
		return "absent"
	case Volatile:
		return "volatile"
	default:
		return "unknown"
	}
}

// Finding is the cross-validation result for one file path.
type Finding struct {
	Path   string
	Status FileStatus
	// Overlap is the fraction of container lines that also appear in the
	// host content (meaningful for Namespaced/Partial).
	Overlap float64
}

// CrossValidate implements the left half of Fig. 1: it recursively explores
// every pseudo-file reachable in the container context, reads each file in
// both the container and host contexts at the same instant, aligns by path,
// and pairwise-diffs the contents. This is the strictly serial reference
// path; CrossValidateWorkers fans the per-path validations out.
func CrossValidate(host, cont *pseudofs.Mount) []Finding {
	var out []Finding
	for _, path := range cont.Paths() {
		out = append(out, validateOne(host, cont, path))
	}
	return out
}

// CrossValidateWorkers is CrossValidate fanned out over a bounded worker
// pool (workers <= 0 selects GOMAXPROCS; 1 falls back to the serial loop).
//
// Safety rests on the pseudo-filesystem read-path audit: with the clock
// paused, every handler is a pure read except /proc/sys/kernel/random/uuid
// (its draw is serialized on a dedicated RNG inside the kernel) and a
// defended host's energy_uj / temp#_input (their lazy accounting update is
// serialized inside powerns and advances at most once per simulated
// instant). Per-path findings are mutually independent, and parallel.Map
// returns them in path order, so the result is byte-identical to the
// serial path at any worker count.
func CrossValidateWorkers(host, cont *pseudofs.Mount, workers int) []Finding {
	paths := cont.Paths()
	if parallel.Workers(workers) == 1 || len(paths) < 2 {
		return CrossValidate(host, cont)
	}
	out, _ := parallel.Map(workers, paths, func(_ int, path string) (Finding, error) {
		return validateOne(host, cont, path), nil
	})
	return out
}

// Quorum-read parameters: each path is read quorumReads times in the
// container context, and each of those reads retries transient failures
// (pseudofs.ErrTransient) up to readRetries extra attempts. Against a
// flaky observation surface, a single read is evidence of nothing: a
// transient glitch is indistinguishable from a dynamic channel, and one
// denied read is indistinguishable from a permanent mask. The quorum
// resolves both: majority content decides equality, a denied/ok mix marks
// a flapping mask, and only genuine per-read divergence (random/uuid) is
// left classified as Volatile.
const (
	quorumReads = 3
	readRetries = 2
)

// quorumResult summarizes quorumReads container reads of one path.
type quorumResult struct {
	content string // majority content among successful reads (first-seen tie-break)
	agree   int    // successful reads returning the majority content
	ok      int    // successful reads
	denied  int    // reads failing with ErrDenied
	absent  int    // reads failing with ErrNotExist
	failed  int    // reads failing persistently any other way
}

// readRetry reads path through m, retrying transient failures up to
// readRetries extra attempts. Non-transient errors return immediately.
func readRetry(m *pseudofs.Mount, path string) (string, error) {
	var (
		data string
		err  error
	)
	for attempt := 0; ; attempt++ {
		data, err = m.Read(path)
		if err == nil || attempt >= readRetries || !errors.Is(err, pseudofs.ErrTransient) {
			return data, err
		}
	}
}

// quorumRead performs the k-read protocol for one path.
func quorumRead(m *pseudofs.Mount, path string) quorumResult {
	var q quorumResult
	counts := make(map[string]int, quorumReads)
	order := make([]string, 0, quorumReads)
	for i := 0; i < quorumReads; i++ {
		data, err := readRetry(m, path)
		switch {
		case err == nil:
			q.ok++
			if counts[data] == 0 {
				order = append(order, data)
			}
			counts[data]++
		case errors.Is(err, pseudofs.ErrDenied):
			q.denied++
		case errors.Is(err, pseudofs.ErrNotExist):
			q.absent++
		default:
			q.failed++
		}
	}
	for _, c := range order {
		if counts[c] > q.agree {
			q.content, q.agree = c, counts[c]
		}
	}
	return q
}

// HostRead supplies host-context content for one path during validation.
// The default implementation is HostReader (a retrying read of the host
// mount); the incremental engine injects a caching reader instead so one
// host render is shared across every container of a fleet pass.
//
// Contract: a HostRead must be equivalent to HostReader(host) — same
// content, same error classification — whenever it is invoked. ValidatePath
// only consults it after the container quorum agreed on non-empty content,
// so implementations never see volatile paths (the quorum disagrees on
// those first).
type HostRead func(path string) (string, error)

// HostReader returns the plain HostRead over a host mount: one policied
// read with transient-failure retries.
func HostReader(host *pseudofs.Mount) HostRead {
	return func(path string) (string, error) { return readRetry(host, path) }
}

// ValidatePath cross-validates a single path: quorum-read it in the
// container context, and — only when the quorum agrees on non-empty
// content — compare against the host content supplied by hostRead. It is
// validateOne with the host read injected, exported for the incremental
// engine.
func ValidatePath(hostRead HostRead, cont *pseudofs.Mount, path string) Finding {
	f := Finding{Path: path}
	cq := quorumRead(cont, path)
	switch {
	case cq.ok == 0 && cq.denied > 0:
		f.Status = Masked
		return f
	case cq.ok == 0:
		// Absent, or persistently unreadable (a dead sensor path reads the
		// same as missing hardware from inside the container).
		f.Status = Absent
		return f
	}
	// Volatility: with at least two successful reads, no two agreeing means
	// the file genuinely changes between back-to-back reads (random/uuid) —
	// equality is undecidable by content diffing. A single transient glitch
	// no longer lands here: torn and stale reads are outvoted by the
	// majority, and failed reads were already retried.
	if cq.ok >= 2 && cq.agree < 2 {
		f.Status = Volatile
		return f
	}
	cData := cq.content
	if cData == "" {
		f.Status = Masked // bind-mounted empty file
		return f
	}
	hData, hErr := hostRead(path)
	if hErr != nil {
		// Readable in the container but not on the host can only be a
		// harness inconsistency; treat as namespaced.
		f.Status = Namespaced
		return f
	}
	// A denied/ok mix means the mask flapped mid-quorum: the channel is
	// readable but unreliably so. Degrade an identical match to Partial
	// instead of reporting a hard leak (or erroring out).
	flapped := cq.denied > 0
	if cData == hData {
		f.Overlap = 1
		if flapped {
			f.Status = Partial
		} else {
			f.Status = Identical
		}
		return f
	}
	f.Overlap = lineOverlap(cData, hData)
	if f.Overlap >= 0.99 {
		f.Status = Partial
	} else {
		f.Status = Namespaced
	}
	return f
}

// validateOne is the classic host-mount entry point used by the serial and
// worker-pool sweeps.
func validateOne(host, cont *pseudofs.Mount, path string) Finding {
	return ValidatePath(HostReader(host), cont, path)
}

// lineOverlap returns the fraction of non-empty container lines that appear
// verbatim in the host content.
func lineOverlap(cont, host string) float64 {
	hostLines := make(map[string]bool)
	for _, l := range strings.Split(host, "\n") {
		if l != "" {
			hostLines[l] = true
		}
	}
	var total, hit int
	for _, l := range strings.Split(cont, "\n") {
		if l == "" {
			continue
		}
		total++
		if hostLines[l] {
			hit++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(hit) / float64(total)
}

// Availability is a channel's per-cloud availability in Table I.
type Availability int

// Channel availability: Available (●) — the channel leaks host data;
// PartiallyAvailable (◐) — filtered but still partially informative;
// Unavailable (○) — masked or hardware-absent.
const (
	Unavailable Availability = iota
	PartiallyAvailable
	Available
)

// String renders the availability glyph used in Table I.
func (a Availability) String() string {
	switch a {
	case Available:
		return "●"
	case PartiallyAvailable:
		return "◐"
	default:
		return "○"
	}
}

// ChannelReport is the per-channel roll-up of file findings.
type ChannelReport struct {
	Channel      Channel
	Availability Availability
	Files        []Finding
}

// Discover returns the findings that leak (Identical or Partial) but match
// no pattern of the given channel registry — the "new channel" output of a
// systematic sweep, which is what distinguishes the paper's cross-
// validation approach from auditing a fixed checklist.
func Discover(channels []Channel, findings []Finding) []Finding {
	var pats []string
	for _, ch := range channels {
		pats = append(pats, ch.Paths...)
	}
	known := pseudofs.Compile(pats...)
	var out []Finding
	for _, f := range findings {
		if f.Status != Identical && f.Status != Partial {
			continue
		}
		if !known.Match(f.Path) {
			out = append(out, f)
		}
	}
	return out
}

// RollUp groups findings into registry channels and derives each channel's
// availability: Available if any member file reads identical to the host,
// PartiallyAvailable if the best member is a filtered subset (or volatile —
// still host kernel state), else Unavailable.
func RollUp(channels []Channel, findings []Finding) []ChannelReport {
	reports := make([]ChannelReport, 0, len(channels))
	for _, ch := range channels {
		rep := ChannelReport{Channel: ch}
		pats := pseudofs.Compile(ch.Paths...)
		for _, f := range findings {
			if pats.Match(f.Path) {
				rep.Files = append(rep.Files, f)
			}
		}
		best := Unavailable
		for _, f := range rep.Files {
			switch f.Status {
			case Identical:
				best = Available
			case Partial, Volatile:
				if best < PartiallyAvailable {
					best = PartiallyAvailable
				}
			}
		}
		rep.Availability = best
		reports = append(reports, rep)
	}
	return reports
}
