// Process-level e2e for the distributed topology: build the real binaries,
// run three shard workers plus a coordinator against a partitioned corpus,
// and require the report to be byte-identical to the in-process reference —
// including a chaos run that SIGKILLs a worker mid-partition.
package main_test

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"certchains/internal/obs"
)

// buildBinaries compiles certchain-coord and certchain-shardd once per test
// binary and returns their paths.
func buildBinaries(t *testing.T) (coord, shardd string) {
	t.Helper()
	dir := t.TempDir()
	coord = filepath.Join(dir, "certchain-coord")
	shardd = filepath.Join(dir, "certchain-shardd")
	for bin, pkg := range map[string]string{coord: ".", shardd: "../certchain-shardd"} {
		build := exec.Command("go", "build", "-o", bin, pkg)
		if out, err := build.CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", pkg, err, out)
		}
	}
	return coord, shardd
}

// freePorts reserves n distinct loopback ports.
func freePorts(t *testing.T, n int) []int {
	t.Helper()
	ports := make([]int, n)
	for i := range ports {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ports[i] = ln.Addr().(*net.TCPAddr).Port
		ln.Close()
	}
	return ports
}

func waitHealthy(t *testing.T, url string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	client := &http.Client{Timeout: time.Second}
	for time.Now().Before(deadline) {
		req, err := http.NewRequestWithContext(context.Background(), http.MethodGet, url+"/healthz", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Do(req)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("worker at %s never became healthy", url)
}

func startShard(t *testing.T, bin string, port int, extra ...string) *exec.Cmd {
	t.Helper()
	args := append([]string{
		"-addr", fmt.Sprintf("127.0.0.1:%d", port),
		"-scale", "0.002",
	}, extra...)
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.Process != nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	waitHealthy(t, fmt.Sprintf("http://127.0.0.1:%d", port))
	return cmd
}

// sequential pins the Go runtime to one P, so the in-process pool is one
// goroutine wide: the reference rung of the equivalence claim.
var sequential = []string{"GOMAXPROCS=1"}

// runCoord runs the coordinator with env added to the inherited environment
// and returns its stdout.
func runCoord(t *testing.T, bin, partsDir string, env []string, extra ...string) []byte {
	t.Helper()
	args := append([]string{
		"-parts", partsDir,
		"-scale", "0.002",
	}, extra...)
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), env...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("certchain-coord %s: %v\nstderr:\n%s", strings.Join(args, " "), err, stderr.String())
	}
	t.Logf("coord stderr:\n%s", stderr.String())
	return stdout.Bytes()
}

// TestDistProcessEquivalence is the N-processes rung of the equivalence
// claim at full process isolation: 3 shard daemons + coordinator vs the
// single-process -local run, byte for byte.
func TestDistProcessEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binaries; skipped in -short")
	}
	coord, shardd := buildBinaries(t)
	partsDir := filepath.Join(t.TempDir(), "parts")

	// Reference: single process, sequential, generating the partitions.
	ref := runCoord(t, coord, partsDir, sequential, "-gen", "3", "-local")

	ports := freePorts(t, 3)
	var workers []string
	for _, p := range ports {
		startShard(t, shardd, p)
		workers = append(workers, fmt.Sprintf("http://127.0.0.1:%d", p))
	}
	got := runCoord(t, coord, partsDir, nil, "-workers", strings.Join(workers, ","))
	if !bytes.Equal(got, ref) {
		t.Error("distributed report diverges from single-process -local run")
	}

	// JSON export too.
	refJSON := runCoord(t, coord, partsDir, nil, "-local", "-json")
	gotJSON := runCoord(t, coord, partsDir, nil, "-workers", strings.Join(workers, ","), "-json")
	if !bytes.Equal(gotJSON, refJSON) {
		t.Error("distributed JSON export diverges from single-process -local run")
	}
}

// TestDistProcessTrace is the real-binary rung of the spliced-trace claim:
// a distributed run's -trace artifact is one Chrome trace carrying spans
// from the coordinator process and every worker process — validated with
// the same checker CI's obs-check invokes.
func TestDistProcessTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binaries; skipped in -short")
	}
	coord, shardd := buildBinaries(t)
	partsDir := filepath.Join(t.TempDir(), "parts")
	tracePath := filepath.Join(t.TempDir(), "run.trace.json")

	ports := freePorts(t, 2)
	var workers []string
	for _, p := range ports {
		startShard(t, shardd, p)
		workers = append(workers, fmt.Sprintf("http://127.0.0.1:%d", p))
	}
	runCoord(t, coord, partsDir, nil,
		"-gen", "3",
		"-workers", strings.Join(workers, ","),
		"-trace", tracePath,
	)

	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	// Coordinator + 2 workers = 3 process tracks; every dist stage plus the
	// workers' pipeline stages must have spans.
	if err := obs.ValidateSplicedChromeTrace(data, 3,
		"dist-ingest", "dist-merge", "finalize", "observe", "dist-encode"); err != nil {
		t.Fatalf("spliced trace: %v", err)
	}
	procs, err := obs.ChromeTraceProcesses(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(procs) != 3 {
		t.Fatalf("trace has %d process tracks (%v), want 3", len(procs), procs)
	}
}

// TestDistChaosKillWorker SIGKILLs a throttled worker mid-partition. The
// lease expires, the coordinator requeues to the survivors, and the final
// report must still be byte-identical to the single-process run.
func TestDistChaosKillWorker(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binaries; skipped in -short")
	}
	coord, shardd := buildBinaries(t)
	partsDir := filepath.Join(t.TempDir(), "parts")
	ref := runCoord(t, coord, partsDir, sequential, "-gen", "3", "-local")

	ports := freePorts(t, 3)
	// Worker 0 crawls: its throttle guarantees whatever partition it holds
	// is still mid-ingest when the SIGKILL lands.
	victim := startShard(t, shardd, ports[0], "-throttle", "250ms")
	var workers []string
	for i, p := range ports {
		if i > 0 {
			startShard(t, shardd, p)
		}
		workers = append(workers, fmt.Sprintf("http://127.0.0.1:%d", p))
	}

	killed := make(chan struct{})
	go func() {
		defer close(killed)
		// Let the coordinator assign and the victim start crawling, then
		// kill -9 — no shutdown handler, no goodbye.
		time.Sleep(1500 * time.Millisecond)
		victim.Process.Signal(syscall.SIGKILL)
		victim.Wait()
	}()

	got := runCoord(t, coord, partsDir, nil,
		"-workers", strings.Join(workers, ","),
		"-lease", "1s",
		"-poll", "50ms",
	)
	<-killed
	if !bytes.Equal(got, ref) {
		t.Error("post-chaos report diverges from single-process run")
	}
}
