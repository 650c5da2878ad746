package service

import (
	"bufio"
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"testing"
)

// readSpecRoutes hand-parses docs/openapi.yaml (the repo is stdlib-only,
// so no YAML decoder): top-level `paths:` entries sit at two-space indent,
// their HTTP methods at four. Returns "METHOD /path" strings.
func readSpecRoutes(t *testing.T) map[string]bool {
	t.Helper()
	f, err := os.Open("../../docs/openapi.yaml")
	if err != nil {
		t.Fatalf("open spec: %v", err)
	}
	defer f.Close()

	routes := make(map[string]bool)
	inPaths := false
	current := ""
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "paths:":
			inPaths = true
		case inPaths && len(line) > 0 && line[0] != ' ' && line[0] != '#':
			inPaths = false // next top-level key (components:, …)
		case inPaths && strings.HasPrefix(line, "  /") && strings.HasSuffix(line, ":"):
			current = strings.TrimSuffix(strings.TrimSpace(line), ":")
		case inPaths && current != "" && strings.HasPrefix(line, "    ") && !strings.HasPrefix(line, "     "):
			method := strings.TrimSuffix(strings.TrimSpace(line), ":")
			switch method {
			case "get", "post", "put", "delete", "patch", "head", "options":
				routes[strings.ToUpper(method)+" "+current] = true
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("read spec: %v", err)
	}
	if len(routes) == 0 {
		t.Fatal("parsed no routes from docs/openapi.yaml — indentation drifted?")
	}
	return routes
}

// TestOpenAPISpecMatchesMux keeps docs/openapi.yaml in sync with the live
// handler: the spec's (method, path) set must equal v1Routes — the slice
// the mux registrations are built from — in both directions, and every
// spec route must be answered by leaksd's own handlers, never the mux's
// plain-text 404/405 fallbacks. The retired unversioned aliases are not
// served at all: each gets the mux's 404.
func TestOpenAPISpecMatchesMux(t *testing.T) {
	spec := readSpecRoutes(t)
	served := make(map[string]bool, len(v1Routes))
	for _, r := range v1Routes {
		served[r] = true
	}
	var missing, extra []string
	for r := range served {
		if !spec[r] {
			missing = append(missing, r)
		}
	}
	for r := range spec {
		if !served[r] {
			extra = append(extra, r)
		}
	}
	sort.Strings(missing)
	sort.Strings(extra)
	if len(missing) > 0 {
		t.Errorf("served routes absent from docs/openapi.yaml: %v", missing)
	}
	if len(extra) > 0 {
		t.Errorf("docs/openapi.yaml routes the handler does not serve: %v", extra)
	}

	s := newTestScheduler(t, Config{Workers: 1}, fakeInspectRunner)
	h := NewHandler(APIConfig{Scheduler: s, Version: "v"})
	for r := range spec {
		method, path, _ := strings.Cut(r, " ")
		path = strings.ReplaceAll(path, "{id}", "no-such-id")
		req := httptest.NewRequest(method, path, strings.NewReader("{}"))
		if path == "/v1/events" {
			// SSE streams until disconnect; a pre-cancelled context makes
			// the handler return after the headers.
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			req = req.WithContext(ctx)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code == http.StatusMethodNotAllowed {
			t.Errorf("%s: 405 — the mux does not register this spec route", r)
			continue
		}
		if rec.Code >= 400 && !strings.HasPrefix(rec.Header().Get("Content-Type"), "application/json") {
			t.Errorf("%s: %d with Content-Type %q — mux fallback, not a leaksd handler",
				r, rec.Code, rec.Header().Get("Content-Type"))
		}
	}
	for _, r := range []string{
		"POST /scans", "GET /scans", "GET /scans/no-such-id", "GET /results",
		"GET /channels", "GET /providers", "GET /events", "GET /metrics",
		"GET /healthz", "GET /version",
	} {
		method, path, _ := strings.Cut(r, " ")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader("{}")))
		if rec.Code != http.StatusNotFound || !strings.HasPrefix(rec.Header().Get("Content-Type"), "text/plain") {
			t.Errorf("%s: %d with Content-Type %q — want the mux's plain-text 404",
				r, rec.Code, rec.Header().Get("Content-Type"))
		}
	}
}

// TestOpenAPISpecDeclaresCachingContract: every cacheable GET documents
// the ETag header, the If-None-Match parameter, and a 304 response; the
// uncacheable endpoints must not claim a validator.
func TestOpenAPISpecDeclaresCachingContract(t *testing.T) {
	raw, err := os.ReadFile("../../docs/openapi.yaml")
	if err != nil {
		t.Fatal(err)
	}
	// Split the paths section into per-path chunks on two-space indent.
	body := string(raw)
	start := strings.Index(body, "\npaths:\n")
	end := strings.Index(body, "\ncomponents:\n")
	if start < 0 || end < 0 || end < start {
		t.Fatal("cannot locate paths/components sections")
	}
	section := body[start+len("\npaths:\n") : end]
	chunks := make(map[string]string)
	var name string
	var sb strings.Builder
	for _, line := range strings.SplitAfter(section, "\n") {
		if strings.HasPrefix(line, "  /") {
			if name != "" {
				chunks[name] = sb.String()
			}
			name = strings.TrimSuffix(strings.TrimSpace(line), ":")
			sb.Reset()
			continue
		}
		sb.WriteString(line)
	}
	if name != "" {
		chunks[name] = sb.String()
	}

	cached := []string{"/v1/scans", "/v1/results", "/v1/matrix", "/v1/channels", "/v1/providers", "/v1/runtimes", "/v1/engine", "/v1/version"}
	for _, p := range cached {
		chunk, ok := chunks[p]
		if !ok {
			t.Errorf("%s: missing from spec", p)
			continue
		}
		for _, want := range []string{"headers/ETag", "parameters/IfNoneMatch", `"304"`} {
			if !strings.Contains(chunk, want) {
				t.Errorf("%s: spec does not declare %s", p, want)
			}
		}
	}
	for _, p := range []string{"/v1/scans/{id}", "/v1/events", "/v1/metrics", "/v1/healthz"} {
		if strings.Contains(chunks[p], "ETag") {
			t.Errorf("%s: uncacheable endpoint must not declare an ETag", p)
		}
	}
}
