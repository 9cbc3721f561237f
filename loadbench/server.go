package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/serve"
)

// cpserveArgs returns the flags the benchmark passes to cpserve: its
// defaults, plus a loopback address and a fresh data directory.
func cpserveArgs(addr, dataDir string) []string {
	return []string{"-addr", addr, "-data-dir", dataDir}
}

// cpserve is one running cpserve child process.
type cpserve struct {
	cmd     *exec.Cmd
	exited  chan struct{} // closed once cmd.Wait returned
	waitErr error         // set before exited is closed
	dataDir string
	log     *os.File
	c       *client
	stopped sync.Once
}

// startCpserve launches bin on a free loopback port with a fresh data
// directory under work and returns once it answers /v1/stats.
func startCpserve(bin, work string) (*cpserve, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	dataDir, err := os.MkdirTemp(work, "data-")
	if err != nil {
		return nil, err
	}
	logf, err := os.CreateTemp(work, "cpserve-*.log")
	if err != nil {
		os.RemoveAll(dataDir)
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, cpserveArgs(addr, dataDir)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		os.RemoveAll(dataDir)
		return nil, fmt.Errorf("starting cpserve: %w", err)
	}
	s := &cpserve{cmd: cmd, exited: make(chan struct{}), dataDir: dataDir, log: logf, c: newClient("http://" + addr)}
	go func() {
		s.waitErr = cmd.Wait()
		close(s.exited)
	}()
	if err := s.waitReady(30 * time.Second); err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// waitReady polls /v1/stats until cpserve answers 200 (it answers 503 while
// it opens its data directory).
func (s *cpserve) waitReady(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		_, err := s.c.do(ctx, "GET", "/v1/stats", nil)
		cancel()
		if err == nil {
			return nil
		}
		select {
		case <-s.exited:
			return fmt.Errorf("cpserve exited before it was ready: %v (log %s)", s.waitErr, s.log.Name())
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("cpserve not ready after %v: %w", timeout, err)
		}
	}
}

// stop sends SIGTERM (graceful drain and WAL flush), kills the process if
// it has not exited within 20s, waits for it, and removes its data
// directory and log. Calls after the first do nothing.
func (s *cpserve) stop() {
	s.stopped.Do(s.halt)
}

func (s *cpserve) halt() {
	s.c.close()
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(20 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
	s.log.Close()
	os.Remove(s.log.Name())
	os.RemoveAll(s.dataDir)
}

// stats fetches GET /v1/stats.
func (s *cpserve) stats() (serve.ServerStats, error) {
	var st serve.ServerStats
	body, err := s.c.do(context.Background(), "GET", "/v1/stats", nil)
	if err != nil {
		return st, err
	}
	return st, json.Unmarshal(body, &st)
}

// peakRSSMB reads cpserve's peak resident set (VmHWM) from /proc.
func (s *cpserve) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("no VmHWM line in /proc status")
}
