package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// The program under test runs as a child process: the xseqd binary built
// from this checkout, serving on loopback.

// buildXseqd compiles cmd/xseqd into dir. The Go caches are whatever the
// environment names (run.sh points them inside the checkout).
func buildXseqd(repoRoot, dir string) (string, error) {
	bin := filepath.Join(dir, "xseqd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/xseqd")
	cmd.Dir = repoRoot
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("build xseqd: %v\n%s", err, out)
	}
	return bin, nil
}

type child struct {
	cmd    *exec.Cmd
	addr   string
	exited chan struct{}
}

// freeAddr reserves a loopback port by binding and releasing it.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startChild execs xseqd and returns once /readyz answers 200, with the time
// from exec to that answer.
func startChild(bin string, args []string, logPath string) (*child, time.Duration, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start xseqd: %w", err)
	}
	c := &child{cmd: cmd, addr: addr, exited: make(chan struct{})}
	go func() {
		_ = cmd.Wait()
		close(c.exited)
	}()
	probe := []byte("GET /readyz HTTP/1.1\r\nHost: xseqd\r\n\r\n")
	deadline := start.Add(120 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-c.exited:
			tail, _ := os.ReadFile(logPath)
			return nil, 0, fmt.Errorf("xseqd exited during start-up: %s", lastLines(tail, 5))
		default:
		}
		if cn, err := dial(addr); err == nil {
			status, _, err := cn.do(probe)
			cn.close()
			if err == nil && status == 200 {
				return c, time.Since(start), nil
			}
		}
		time.Sleep(250 * time.Microsecond)
	}
	c.kill()
	return nil, 0, fmt.Errorf("xseqd not ready after 120s")
}

// kill ends the child the way a crash would (no drain, no WAL close) and
// waits until it is gone.
func (c *child) kill() {
	_ = c.cmd.Process.Kill()
	<-c.exited
}

// get fetches a JSON endpoint into v.
func (c *child) get(path string, v any) error {
	cn, err := dial(c.addr)
	if err != nil {
		return err
	}
	defer cn.close()
	status, body, err := cn.do([]byte("GET " + path + " HTTP/1.1\r\nHost: xseqd\r\n\r\n"))
	if err != nil {
		return err
	}
	if status != 200 {
		return fmt.Errorf("GET %s: status %d", path, status)
	}
	return json.Unmarshal(body, v)
}

// childStats is the part of /stats the benchmark reads.
type childStats struct {
	Flat *struct {
		ResidentBytes int64 `json:"resident_bytes"`
	} `json:"flat"`
	QueryCache *struct {
		Hits      int64 `json:"hits"`
		Misses    int64 `json:"misses"`
		Evictions int64 `json:"evictions"`
	} `json:"query_cache"`
	Admission struct {
		Rejected int64 `json:"rejected"`
	} `json:"admission"`
	Ingest *struct {
		Inserts     int64 `json:"inserts"`
		Compactions int   `json:"compactions"`
	} `json:"ingest"`
	Durability *struct {
		SizeBytes int64 `json:"size_bytes"`
		Syncs     int64 `json:"syncs"`
	} `json:"durability"`
	Latency map[string]struct {
		P50MS float64 `json:"p50_ms"`
	} `json:"latency"`
}

// procStatus reads one "Key:  N kB" line of /proc/<pid>/status, in KiB.
func (c *child) procStatusKB(key string) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, key+":"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			return strconv.ParseInt(f[0], 10, 64)
		}
	}
	return 0, fmt.Errorf("%s not in /proc status", key)
}

// watchRSS samples the child's resident set every interval until the
// returned function is called, which reports the median sample in MiB. The
// peak (VmHWM) depends on where the garbage collector happened to be; the
// median over the load phase repeats.
func (c *child) watchRSS(interval time.Duration) (stop func() float64) {
	done := make(chan struct{})
	out := make(chan []float64)
	go func() {
		var samples []float64
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				out <- samples
				return
			case <-t.C:
				if kb, err := c.procStatusKB("VmRSS"); err == nil {
					samples = append(samples, float64(kb)/1024)
				}
			}
		}
	}()
	return func() float64 {
		close(done)
		return median(<-out)
	}
}

// cpuSeconds is the child's user+system CPU time so far.
func (c *child) cpuSeconds() float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", c.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th overall, in clock ticks (100 Hz on Linux).
	i := bytes.LastIndexByte(b, ')')
	f := strings.Fields(string(b[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseFloat(f[11], 64)
	st, _ := strconv.ParseFloat(f[12], 64)
	return (ut + st) / 100
}

// selfCPUSeconds is this process's user+system CPU time so far.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func lastLines(b []byte, n int) string {
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, " | ")
}
