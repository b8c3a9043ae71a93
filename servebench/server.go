package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildServer compiles fsiserve from the checkout at root into dir, so each
// tree under test is measured with its own binary.
func buildServer(ctx context.Context, root, dir string) (string, error) {
	bin := filepath.Join(dir, "fsiserve")
	cmd := exec.CommandContext(ctx, "go", "build", "-buildvcs=false", "-o", bin, "./cmd/fsiserve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building fsiserve: %v\n%s", err, out)
	}
	return bin, nil
}

// tailBuffer keeps the last few KiB of a child's output for error reports.
type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > 8<<10 {
		t.buf = append(t.buf[:0], t.buf[len(t.buf)-4<<10:]...)
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}

// server is one running fsiserve process on a loopback port.
type server struct {
	cmd     *exec.Cmd
	addr    string
	out     *tailBuffer
	done    chan struct{} // closed once the process has exited
	waitErr error
}

// healthTimeout bounds set-up: the 1M-doc corpus builds in about 11 s on a
// 2-core VM.
const healthTimeout = 150 * time.Second

// startServer starts bin on a free loopback port and waits for the first
// 200 from /healthz. The returned duration runs from exec to that reply.
// The process is killed if the benchmark dies (Pdeathsig).
func startServer(ctx context.Context, bin string, args []string) (*server, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	s := &server{addr: "127.0.0.1:" + strconv.Itoa(port), out: &tailBuffer{}, done: make(chan struct{})}
	s.cmd = exec.Command(bin, append([]string{"-addr", s.addr}, args...)...)
	s.cmd.Stdout, s.cmd.Stderr = s.out, s.out
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting fsiserve: %w", err)
	}
	go func() {
		s.waitErr = s.cmd.Wait()
		close(s.done)
	}()
	deadline := start.Add(healthTimeout)
	for {
		if healthy(s.addr) {
			return s, time.Since(start), nil
		}
		select {
		case <-s.done:
			return nil, 0, fmt.Errorf("fsiserve exited during set-up: %v\n%s", s.waitErr, s.out)
		case <-ctx.Done():
			s.stop()
			return nil, 0, ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, 0, fmt.Errorf("fsiserve not healthy after %v\n%s", healthTimeout, s.out)
		}
	}
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, fmt.Errorf("finding a free port: %w", err)
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

func healthy(addr string) bool {
	c, err := net.DialTimeout("tcp", addr, 100*time.Millisecond)
	if err != nil {
		return false
	}
	defer c.Close()
	_ = c.SetDeadline(time.Now().Add(time.Second))
	if _, err := io.WriteString(c, "GET /healthz HTTP/1.1\r\n"+host+"Connection: close\r\n\r\n"); err != nil {
		return false
	}
	resp, err := http.ReadResponse(bufio.NewReader(c), nil)
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// stop ends the server: SIGTERM for a graceful drain, SIGKILL if it has
// not exited within 10 s. It returns once the process has exited.
func (s *server) stop() {
	select {
	case <-s.done:
		return
	default:
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
}

// peakRSSMiB is the server's VmHWM (peak resident set) in MiB.
func (s *server) peakRSSMiB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, fmt.Errorf("reading server status: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) != 2 || f[1] != "kB" {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				break
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM line in server status")
}

// stealSeconds is the CPU time the hypervisor has taken from this VM so far
// (the steal column of /proc/stat), or 0 where it cannot be read. The
// report prints it next to each timed loop to explain noisy runs.
func stealSeconds() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return v / 100 // USER_HZ
}

var scrapeClient = &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{DisableKeepAlives: true}}

func (s *server) get(path string) ([]byte, error) {
	resp, err := scrapeClient.Get("http://" + s.addr + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("GET %s: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return b, nil
}

func (s *server) metrics() (promSample, error) {
	b, err := s.get("/metrics")
	if err != nil {
		return nil, err
	}
	return parseProm(string(b))
}

// serverStats is the part of /stats the benchmark reads.
type serverStats struct {
	Docs     uint64 `json:"docs"`
	Terms    int    `json:"terms"`
	Postings struct {
		BytesPerPosting float64 `json:"bytes_per_posting"`
	} `json:"postings"`
	SegmentFreezes  uint64 `json:"segment_freezes"`
	SegmentMerges   uint64 `json:"segment_merges"`
	CompactionBytes uint64 `json:"compaction_bytes"`
	Delta           struct {
		Tombstones int `json:"tombstones"`
	} `json:"delta"`
}

func (s *server) stats() (serverStats, error) {
	var st serverStats
	b, err := s.get("/stats")
	if err != nil {
		return st, err
	}
	if err := json.Unmarshal(b, &st); err != nil {
		return st, fmt.Errorf("decoding /stats: %w", err)
	}
	return st, nil
}
