package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"syscall"
	"testing"
	"time"
)

func TestVersionFlag(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-version"}, &out, &errb, nil); code != 0 {
		t.Fatalf("exit = %d, stderr %q", code, errb.String())
	}
	if !strings.HasPrefix(out.String(), "leaksd ") {
		t.Fatalf("version output %q lacks the binary name", out.String())
	}
}

func TestUnknownFlag(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-warp-drive"}, &out, &errb, nil); code != 2 {
		t.Fatalf("exit = %d; want 2 for a flag error", code)
	}
}

func TestBadListenAddress(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-addr", "256.256.256.256:0"}, &out, &errb, nil); code != 1 {
		t.Fatalf("exit = %d; want 1 for an unusable address", code)
	}
	if !strings.Contains(errb.String(), "serve") {
		t.Fatalf("stderr %q lacks the serve error", errb.String())
	}
}

func TestRoleFlagValidation(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-role", "banana"}, &out, &errb, nil); code != 2 {
		t.Fatalf("exit = %d; want 2 for an unknown role", code)
	}
	if !strings.Contains(errb.String(), "unknown -role") {
		t.Fatalf("stderr %q lacks the role error", errb.String())
	}
}

func TestCoordinatorRequiresPeers(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-role", "coordinator"}, &out, &errb, nil); code != 2 {
		t.Fatalf("exit = %d; want 2 for a coordinator without peers", code)
	}
	if !strings.Contains(errb.String(), "-peers") {
		t.Fatalf("stderr %q lacks the peers error", errb.String())
	}
}

func TestSplitPeers(t *testing.T) {
	got := splitPeers(" a:1, b:2,,c:3 ,")
	want := []string{"a:1", "b:2", "c:3"}
	if len(got) != len(want) {
		t.Fatalf("splitPeers = %v; want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("splitPeers = %v; want %v", got, want)
		}
	}
	if splitPeers("") != nil {
		t.Fatalf("splitPeers(\"\") = %v; want nil", splitPeers(""))
	}
}

// TestClusterEndToEnd boots two worker daemons and a coordinator daemon on
// ephemeral ports — real HTTP between nodes — runs a partitioned fleet
// scan through POST /v1/cluster/scans, checks role gating, and drains all
// three with one SIGTERM.
func TestClusterEndToEnd(t *testing.T) {
	type daemon struct {
		out, errb bytes.Buffer
		exit      chan int
		base      string
	}
	boot := func(args ...string) *daemon {
		d := &daemon{exit: make(chan int, 1)}
		ready := make(chan string, 1)
		go func() { d.exit <- run(args, &d.out, &d.errb, ready) }()
		select {
		case addr := <-ready:
			d.base = "http://" + addr
			return d
		case code := <-d.exit:
			t.Fatalf("daemon %v exited early with %d: %s", args, code, d.errb.String())
		case <-time.After(10 * time.Second):
			t.Fatalf("daemon %v never became ready", args)
		}
		return nil
	}

	w1 := boot("-addr", "127.0.0.1:0", "-role", "worker")
	w2 := boot("-addr", "127.0.0.1:0", "-role", "worker")
	coord := boot("-addr", "127.0.0.1:0", "-role", "coordinator",
		"-peers", strings.TrimPrefix(w1.base, "http://")+","+strings.TrimPrefix(w2.base, "http://"))

	// Worker liveness probe answers on workers, 409s on the coordinator.
	resp, err := http.Get(w1.base + "/v1/cluster/ping")
	if err != nil {
		t.Fatalf("GET ping: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("worker ping status = %d; want 200", resp.StatusCode)
	}
	resp, err = http.Get(coord.base + "/v1/cluster/ping")
	if err != nil {
		t.Fatalf("GET coordinator ping: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("coordinator ping status = %d; want 409 wrong_role", resp.StatusCode)
	}

	// A partitioned fleet scan over real HTTP links: complete, with every
	// container accounted for.
	resp, err = http.Post(coord.base+"/v1/cluster/scans", "application/json",
		strings.NewReader(`{"provider":"local","containers":6}`))
	if err != nil {
		t.Fatalf("POST cluster scan: %v", err)
	}
	var scan struct {
		Generation uint64 `json:"generation"`
		Partial    bool   `json:"partial"`
		Leaking    []int  `json:"leaking"`
		Shards     []struct {
			Status string `json:"status"`
			Worker string `json:"worker"`
		} `json:"shards"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&scan); err != nil {
		t.Fatalf("decode scan: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scan status = %d; want 200", resp.StatusCode)
	}
	if scan.Partial || scan.Generation == 0 || len(scan.Leaking) != 6 {
		t.Fatalf("scan = %+v; want complete result over 6 containers", scan)
	}
	for _, sh := range scan.Shards {
		if sh.Status != "done" {
			t.Fatalf("shard on %s = %s; want done", sh.Worker, sh.Status)
		}
	}
	for i, n := range scan.Leaking {
		if n < 0 {
			t.Fatalf("container %d degraded out of a complete scan", i)
		}
	}

	// Cluster status on the coordinator lists both workers.
	resp, err = http.Get(coord.base + "/v1/cluster")
	if err != nil {
		t.Fatalf("GET /v1/cluster: %v", err)
	}
	var status struct {
		Role    string `json:"role"`
		Cluster struct {
			Workers []struct {
				ID    string `json:"id"`
				Alive bool   `json:"alive"`
			} `json:"workers"`
		} `json:"cluster"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatalf("decode cluster status: %v", err)
	}
	resp.Body.Close()
	if status.Role != "coordinator" || len(status.Cluster.Workers) != 2 {
		t.Fatalf("cluster status = %+v; want coordinator with 2 workers", status)
	}
	for _, w := range status.Cluster.Workers {
		if !w.Alive {
			t.Fatalf("worker %s marked dead in a healthy cluster", w.ID)
		}
	}

	// One SIGTERM reaches all three daemons; each drains to exit 0.
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatalf("deliver SIGTERM: %v", err)
	}
	for _, d := range []*daemon{w1, w2, coord} {
		select {
		case code := <-d.exit:
			if code != 0 {
				t.Fatalf("exit = %d; stderr %s", code, d.errb.String())
			}
		case <-time.After(30 * time.Second):
			t.Fatal("a daemon never exited after SIGTERM")
		}
	}
}

// TestDaemonServesAndDrainsOnSignal boots the real daemon on an ephemeral
// port, exercises the API end to end, then delivers SIGTERM and verifies
// the drain completes with exit code 0.
func TestDaemonServesAndDrainsOnSignal(t *testing.T) {
	var out, errb bytes.Buffer
	ready := make(chan string, 1)
	exit := make(chan int, 1)
	go func() {
		exit <- run([]string{"-addr", "127.0.0.1:0", "-workers", "2", "-drain-timeout", "30s"}, &out, &errb, ready)
	}()
	var base string
	select {
	case addr := <-ready:
		base = "http://" + addr
	case code := <-exit:
		t.Fatalf("daemon exited early with %d: %s", code, errb.String())
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never became ready")
	}

	// Liveness and build info.
	resp, err := http.Get(base + "/v1/healthz")
	if err != nil {
		t.Fatalf("GET /v1/healthz: %v", err)
	}
	var health struct {
		Status  string `json:"status"`
		Version string `json:"version"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatalf("decode healthz: %v", err)
	}
	resp.Body.Close()
	if health.Status != "ok" || !strings.HasPrefix(health.Version, "leaksd ") {
		t.Fatalf("healthz = %+v", health)
	}

	// One real scan through the daemon (a single-provider inspection is the
	// cheapest compute-bearing kind).
	resp, err = http.Post(base+"/v1/scans", "application/json",
		strings.NewReader(`{"kind":"inspect","provider":"local"}`))
	if err != nil {
		t.Fatalf("POST /v1/scans: %v", err)
	}
	var job struct {
		ID     string `json:"id"`
		Status string `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		t.Fatalf("decode job: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST status = %d; want 202", resp.StatusCode)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		r, err := http.Get(fmt.Sprintf("%s/v1/scans/%s", base, job.ID))
		if err != nil {
			t.Fatalf("poll: %v", err)
		}
		var j struct {
			Status string `json:"status"`
			Error  string `json:"error"`
		}
		if err := json.NewDecoder(r.Body).Decode(&j); err != nil {
			t.Fatalf("decode poll: %v", err)
		}
		r.Body.Close()
		if j.Status == "done" {
			break
		}
		if j.Status == "failed" || j.Status == "canceled" {
			t.Fatalf("scan %s = %s (%s)", job.ID, j.Status, j.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("scan %s stuck in %s", job.ID, j.Status)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Metrics moved.
	r, err := http.Get(base + "/v1/metrics")
	if err != nil {
		t.Fatalf("GET /v1/metrics: %v", err)
	}
	scrape, _ := io.ReadAll(r.Body)
	r.Body.Close()
	if !strings.Contains(string(scrape), `leaksd_scans_total{kind="inspect",status="done"} 1`) {
		t.Fatalf("metrics lack the finished scan:\n%s", scrape)
	}

	// SIGTERM → graceful drain → exit 0.
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatalf("deliver SIGTERM: %v", err)
	}
	select {
	case code := <-exit:
		if code != 0 {
			t.Fatalf("exit = %d; stderr %s", code, errb.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon never exited after SIGTERM")
	}
	if !strings.Contains(out.String(), "draining") || !strings.Contains(out.String(), "stopped") {
		t.Fatalf("drain log = %q; want draining + stopped lines", out.String())
	}
}
