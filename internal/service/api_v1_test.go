package service

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// fakeInspectRunner returns a canned per-provider result without touching
// the experiment layer — API tests need jobs and verdicts, not physics.
func fakeInspectRunner(ctx context.Context, req ScanRequest) (*ScanResult, error) {
	avail := "●"
	if req.Provider == "cc2" {
		avail = "○"
	}
	return &ScanResult{
		Request:  req,
		Rendered: "FAKE " + string(req.Kind) + " " + req.Provider,
		Verdicts: []Verdict{
			{Provider: req.Provider, Channel: "/proc/meminfo", Availability: avail},
			{Provider: req.Provider, Channel: "/proc/uptime", Availability: "◐"},
		},
	}, nil
}

func get(t *testing.T, srv *httptest.Server, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp, body
}

// envelope decodes and asserts the /v1 structured error shape.
func envelope(t *testing.T, body []byte, wantCode string) {
	t.Helper()
	var env struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("error body is not the /v1 envelope: %v (%s)", err, body)
	}
	if env.Error.Code != wantCode {
		t.Errorf("error code = %q, want %q (%s)", env.Error.Code, wantCode, body)
	}
	if env.Error.Message == "" {
		t.Errorf("error envelope has empty message: %s", body)
	}
}

// submitAndWait submits a scan through the given route and polls until the
// job is terminal.
func submitAndWait(t *testing.T, s *Scheduler, srv *httptest.Server, route, body string) Job {
	t.Helper()
	resp, err := http.Post(srv.URL+route, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", route, err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: status %d: %s", route, resp.StatusCode, raw)
	}
	var job Job
	if err := json.Unmarshal(raw, &job); err != nil {
		t.Fatalf("decode job: %v (%s)", err, raw)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		j, ok := s.JobByID(job.ID)
		if !ok {
			t.Fatalf("job %s vanished", job.ID)
		}
		if j.Terminal() {
			return j
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s not terminal after 10s (status %s)", job.ID, j.Status)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// nonFlusher hides the recorder's Flush method: an http.ResponseWriter
// that cannot stream.
type nonFlusher struct{ http.ResponseWriter }

// TestV1EventsNonFlusherEnvelope: a connection that cannot stream gets a
// 500 carrying the /v1 envelope with the internal code, like every other
// /v1 failure.
func TestV1EventsNonFlusherEnvelope(t *testing.T) {
	s := newTestScheduler(t, Config{Workers: 1}, fakeInspectRunner)
	h := NewHandler(APIConfig{Scheduler: s, Version: "v"})
	rec := httptest.NewRecorder()
	h.ServeHTTP(nonFlusher{rec}, httptest.NewRequest("GET", "/v1/events", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q, want application/json", ct)
	}
	envelope(t, rec.Body.Bytes(), codeInternal)
}

// TestV1ErrorEnvelopes drives every /v1 failure path and asserts the
// structured envelope with the right code.
func TestV1ErrorEnvelopes(t *testing.T) {
	s, srv := newTestAPI(t, Config{Workers: 1}, fakeInspectRunner)

	post := func(body string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Post(srv.URL+"/v1/scans", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST /v1/scans: %v", err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		return resp, raw
	}

	if resp, body := post(`{not json`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("invalid JSON: status %d", resp.StatusCode)
	} else {
		envelope(t, body, codeBadRequest)
	}
	if resp, body := post(`{"kind":"bogus"}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown kind: status %d", resp.StatusCode)
	} else {
		envelope(t, body, codeBadRequest)
	}
	if resp, body := post(`{"kind":"inspect","provider":"atlantis"}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown provider: status %d", resp.StatusCode)
	} else {
		envelope(t, body, codeBadRequest)
	}

	if resp, body := get(t, srv, "/v1/scans/ghost"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("missing scan: status %d", resp.StatusCode)
	} else {
		envelope(t, body, codeNotFound)
	}
	if resp, body := get(t, srv, "/v1/results?provider=atlantis"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown results provider: status %d", resp.StatusCode)
	} else {
		envelope(t, body, codeNotFound)
	}
	if resp, body := get(t, srv, "/v1/scans?provider=atlantis"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown scans provider: status %d", resp.StatusCode)
	} else {
		envelope(t, body, codeNotFound)
	}
	for _, q := range []string{"limit=-1", "limit=x", "offset=-2", "offset=x", "verdict=sideways"} {
		resp, body := get(t, srv, "/v1/scans?"+q)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("?%s: status %d, want 400", q, resp.StatusCode)
			continue
		}
		envelope(t, body, codeBadRequest)
	}

	// Draining: submissions refused with the draining code.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = s.Shutdown(ctx)
	if resp, body := post(`{"kind":"inspect","provider":"cc1"}`); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining: status %d, want 503", resp.StatusCode)
	} else {
		envelope(t, body, codeDraining)
	}
}

func TestV1ScansPaginationAndFiltering(t *testing.T) {
	s, srv := newTestAPI(t, Config{Workers: 1}, fakeInspectRunner)
	for _, p := range []string{"cc1", "cc2", "cc3"} {
		submitAndWait(t, s, srv, "/v1/scans", fmt.Sprintf(`{"kind":"inspect","provider":%q}`, p))
	}

	type scansBody struct {
		Scans []Job `json:"scans"`
	}
	decode := func(body []byte) scansBody {
		t.Helper()
		var sb scansBody
		if err := json.Unmarshal(body, &sb); err != nil {
			t.Fatalf("decode scans: %v (%s)", err, body)
		}
		return sb
	}

	cases := []struct {
		query     string
		wantLen   int
		wantTotal string
	}{
		{"", 3, "3"},
		{"?limit=2", 2, "3"},
		{"?limit=2&offset=2", 1, "3"},
		{"?limit=0", 0, "3"},      // count-only probe
		{"?offset=3", 0, "3"},     // offset exactly past end
		{"?offset=999", 0, "3"},   // offset far past end
		{"?provider=cc2", 1, "1"}, // filter before pagination
		{"?provider=cc2&limit=0", 0, "1"},
		{"?verdict=available", 2, "2"},   // cc1, cc3 carry ●
		{"?verdict=unavailable", 1, "1"}, // cc2 carries ○
		{"?verdict=partial", 3, "3"},     // all carry ◐
		{"?verdict=available&provider=cc2", 0, "0"},
	}
	for _, tc := range cases {
		resp, body := get(t, srv, "/v1/scans"+tc.query)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET /v1/scans%s: status %d: %s", tc.query, resp.StatusCode, body)
			continue
		}
		sb := decode(body)
		if len(sb.Scans) != tc.wantLen {
			t.Errorf("GET /v1/scans%s: %d scans, want %d", tc.query, len(sb.Scans), tc.wantLen)
		}
		if got := resp.Header.Get("X-Total-Count"); got != tc.wantTotal {
			t.Errorf("GET /v1/scans%s: X-Total-Count %q, want %q", tc.query, got, tc.wantTotal)
		}
	}

	// Window ordering: limit/offset slices the same submission order the
	// full list shows.
	_, all := get(t, srv, "/v1/scans")
	full := decode(all)
	_, windowed := get(t, srv, "/v1/scans?limit=1&offset=1")
	win := decode(windowed)
	if len(win.Scans) != 1 || win.Scans[0].ID != full.Scans[1].ID {
		t.Errorf("window [1,2) returned %+v, want job %s", win.Scans, full.Scans[1].ID)
	}
}

func TestV1ResultsPaginationAndFiltering(t *testing.T) {
	s, srv := newTestAPI(t, Config{Workers: 1}, fakeInspectRunner)
	for _, p := range []string{"cc1", "cc2"} {
		submitAndWait(t, s, srv, "/v1/scans", fmt.Sprintf(`{"kind":"inspect","provider":%q}`, p))
	}

	type resultsBody struct {
		Results []ProviderVerdicts `json:"results"`
	}
	decode := func(body []byte) resultsBody {
		t.Helper()
		var rb resultsBody
		if err := json.Unmarshal(body, &rb); err != nil {
			t.Fatalf("decode results: %v (%s)", err, body)
		}
		return rb
	}

	resp, body := get(t, srv, "/v1/results?limit=1&offset=1")
	rb := decode(body)
	if len(rb.Results) != 1 || rb.Results[0].Provider != "cc2" {
		t.Errorf("paginated results = %+v, want just cc2", rb.Results)
	}
	if got := resp.Header.Get("X-Total-Count"); got != "2" {
		t.Errorf("X-Total-Count %q, want 2", got)
	}

	// ?verdict= narrows cells and drops providers left empty.
	_, body = get(t, srv, "/v1/results?verdict=available")
	rb = decode(body)
	if len(rb.Results) != 1 || rb.Results[0].Provider != "cc1" {
		t.Fatalf("verdict=available results = %+v, want just cc1", rb.Results)
	}
	for _, v := range rb.Results[0].Verdicts {
		if v.Availability != "●" {
			t.Errorf("verdict filter leaked cell %+v", v)
		}
	}

	// Glyphs are accepted verbatim too.
	_, glyphBody := get(t, srv, "/v1/results?verdict="+"●")
	if string(glyphBody) != string(body) {
		t.Error("glyph verdict filter differs from its ASCII alias")
	}
}

func TestV1EngineEndpoint(t *testing.T) {
	// Real runner: a cheap discovery scan exercises the session pool.
	s, srv := newTestAPI(t, Config{Workers: 1}, nil)
	submitAndWait(t, s, srv, "/v1/scans", `{"kind":"discovery"}`)

	resp, body := get(t, srv, "/v1/engine")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/engine: status %d: %s", resp.StatusCode, body)
	}
	var info EngineInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatalf("decode engine info: %v (%s)", err, body)
	}
	if info.Sessions != 1 || info.SessionMisses != 1 {
		t.Errorf("engine info after one scan: %+v, want 1 session / 1 miss", info)
	}
	if info.Stats.Passes == 0 || info.Stats.FindingMisses == 0 {
		t.Errorf("engine stats empty after a real scan: %+v", info.Stats)
	}
	if len(info.Stats.Epochs) == 0 {
		t.Error("engine info carries no epoch breakdown")
	}
}
