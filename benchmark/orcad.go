package main

// orcad.go builds and runs the real cmd/orcad binary and reads what an
// operator can read from outside it: HTTP replies, /varz and /proc/<pid>.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// buildDir is where the benchmark leaves its outputs (binary, catalog,
// traces), relative to the repository root; .gitignore names it.
const buildDir = ".bench_build"

// repoRoot walks up from the working directory to the module root, so the
// benchmark runs the same from the root (go run) and from its own directory
// (go test).
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if data, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && strings.HasPrefix(string(data), "module orca\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("module orca's go.mod not found above the working directory")
		}
		dir = parent
	}
}

// buildOrcad compiles cmd/orcad from the checkout's source.
func buildOrcad(root string) (string, error) {
	bin := filepath.Join(root, buildDir, "orcad")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/orcad")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/orcad: %v\n%s", err, out)
	}
	return bin, nil
}

// orcad is one running server process.
type orcad struct {
	cmd    *exec.Cmd
	url    string
	stderr bytes.Buffer
	client *http.Client
}

// startOrcad spawns the binary with its default flags plus extra (the
// workload's plan-cache flag) and waits until /readyz answers.
func startOrcad(bin, catalogPath, workDir string, conns int, extra ...string) (*orcad, error) {
	addrFile := filepath.Join(workDir, "orcad.addr")
	_ = os.Remove(addrFile) // a stale file would name a dead port
	args := append([]string{"-metadata=" + catalogPath, "-addr=127.0.0.1:0", "-addr-file=" + addrFile}, extra...)
	o := &orcad{cmd: exec.Command(bin, args...)}
	o.cmd.Stderr = &o.stderr
	if err := o.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting orcad: %w", err)
	}
	o.client = &http.Client{Transport: &http.Transport{
		MaxIdleConns: conns, MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns,
	}}
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		if o.url == "" {
			if addr, err := os.ReadFile(addrFile); err == nil && len(addr) > 0 {
				o.url = "http://" + strings.TrimSpace(string(addr))
			}
		}
		if o.url != "" {
			if resp, err := o.client.Get(o.url + "/readyz"); err == nil {
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return o, nil
				}
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	o.stop()
	return nil, fmt.Errorf("orcad never became ready; stderr:\n%s", o.stderr.String())
}

// stop drains orcad with SIGTERM and waits for the process to end.
func (o *orcad) stop() {
	o.client.CloseIdleConnections()
	_ = o.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() { _ = o.cmd.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		_ = o.cmd.Process.Kill()
		<-done
	}
}

// httpReply is what one optimize request came back with.
type httpReply struct {
	status     int
	body       []byte
	cacheState string
	latency    time.Duration
}

// post sends one optimize request and reads the whole reply.
func (o *orcad) post(ctx context.Context, path, contentType string, body []byte) (httpReply, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, o.url+path, bytes.NewReader(body))
	if err != nil {
		return httpReply{}, err
	}
	req.Header.Set("Content-Type", contentType)
	t0 := time.Now()
	resp, err := o.client.Do(req)
	if err != nil {
		return httpReply{}, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(t0)
	if err != nil {
		return httpReply{}, err
	}
	return httpReply{status: resp.StatusCode, body: data, cacheState: resp.Header.Get("X-Orca-Cache"), latency: lat}, nil
}

// varz reads orcad's counters.
func (o *orcad) varz() (map[string]int64, error) {
	resp, err := o.client.Get(o.url + "/varz")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]int64{}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("decoding /varz: %w", err)
	}
	return out, nil
}

// cpuTime is utime+stime of process pid from /proc/<pid>/stat.
func cpuTime(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th of the line, so the 12th and 13th after ") ".
	i := bytes.LastIndexByte(data, ')')
	f := strings.Fields(string(data[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("unexpected /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unexpected /proc/%d/stat times", pid)
	}
	const userHZ = 100 // Linux reports these in 10 ms ticks on every port Go supports
	return time.Duration(ut+st) * time.Second / userHZ, nil
}

// peakRSS is VmHWM of process pid in bytes.
func peakRSS(pid int) (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 2 && f[1] == "kB" {
				kb, err := strconv.ParseInt(f[0], 10, 64)
				return kb << 10, err
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}
