package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// buildServer compiles cmd/reconserve into dir and returns the binary's
// path. It runs before set-up is timed; with a warm build cache it is a
// no-op link check.
func buildServer(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	bin, err := filepath.Abs(filepath.Join(dir, "reconserve"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "refrecon/cmd/reconserve")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build cmd/reconserve: %v\n%s", err, out)
	}
	return bin, nil
}

// server is one reconserve child process and the HTTP client driving it.
type server struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
	stderr bytes.Buffer
	exited chan struct{} // closed once the process has ended
	err    error         // from Wait, readable after exited closes
}

// freeAddr asks the kernel for an unused loopback port.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startServer execs the binary and waits until /readyz answers 200. The
// returned duration runs from exec to that first 200.
func startServer(bin string, conns int, args ...string) (*server, time.Duration, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	s := &server{
		base:   "http://" + addr,
		exited: make(chan struct{}),
		client: &http.Client{
			Transport: &http.Transport{MaxIdleConns: conns, MaxIdleConnsPerHost: conns},
			Timeout:   120 * time.Second,
		},
	}
	s.cmd = exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	s.cmd.Stderr = &s.stderr
	start := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, 0, err
	}
	go func() { s.err = s.cmd.Wait(); close(s.exited) }()
	for {
		resp, err := s.client.Get(s.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(start), nil
			}
		}
		select {
		case <-s.exited:
			return nil, 0, fmt.Errorf("reconserve exited before ready: %v\n%s", s.err, s.stderr.String())
		case <-time.After(2 * time.Millisecond):
		}
		if time.Since(start) > 120*time.Second {
			s.kill()
			return nil, 0, fmt.Errorf("reconserve not ready after 120s\n%s", s.stderr.String())
		}
	}
}

// kill sends SIGKILL and waits for the process to end. Killing or
// stopping a server that has already ended does nothing.
func (s *server) kill() {
	s.cmd.Process.Kill()
	<-s.exited
	s.client.CloseIdleConnections()
}

// stop shuts the server down with SIGTERM, falling back to SIGKILL.
func (s *server) stop() {
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(20 * time.Second):
		s.cmd.Process.Kill()
		<-s.exited
	}
	s.client.CloseIdleConnections()
}

// rssPeakMB reads the child's peak resident set (VmHWM) from /proc.
func (s *server) rssPeakMB() float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// post sends one body and returns the whole response payload.
func (s *server) post(path string, body []byte) ([]byte, error) {
	resp, err := s.client.Post(s.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(payload))
	}
	return payload, nil
}

func (s *server) stats() (serverStats, error) {
	var m serverStats
	resp, err := s.client.Get(s.base + "/metrics")
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(&m)
	return m, err
}

// queryBody renders the wire form of one query: a single-entry batch, as
// an OpenRefine client reconciling one cell sends it.
func queryBody(q reconQuery) []byte {
	body, _ := json.Marshal(map[string]reconQuery{"q": q}) // plain data always marshals
	return body
}

// topOfResponse checks a reconcile response and returns the id of the top
// candidate, "" when the result list is empty. A missing key, an error
// envelope or malformed JSON is an error.
func topOfResponse(payload []byte) (string, error) {
	var out map[string]struct {
		Result []struct {
			ID string `json:"id"`
		} `json:"result"`
		Error string `json:"error"`
	}
	if err := json.Unmarshal(payload, &out); err != nil {
		return "", fmt.Errorf("malformed response: %v", err)
	}
	r, ok := out["q"]
	if !ok {
		return "", fmt.Errorf("response lacks the query key")
	}
	if r.Error != "" {
		return "", fmt.Errorf("query error: %s", r.Error)
	}
	if len(r.Result) == 0 {
		return "", nil
	}
	return r.Result[0].ID, nil
}
