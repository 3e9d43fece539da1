package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"enframe/internal/server"
)

// callers is the closed-loop client count of the served workloads: the box
// has two cores, and a third caller would measure the scheduler.
const callers = 2

// findRoot walks up from the working directory to the enframe module root,
// so the benchmark runs from the root (`go run ./benchmark`) and from its own
// directory (`go test`).
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		b, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(b), "module enframe\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no enframe go.mod above the working directory; run from the repository")
		}
		dir = parent
	}
}

// buildEnframe compiles cmd/enframe from the checkout's source into the
// benchmark's output directory. The go tool's build cache makes every build
// after the first a sub-second no-op.
func buildEnframe(root, outDir string) (string, error) {
	bin := filepath.Join(outDir, "enframe")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/enframe")
	cmd.Dir = root
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("build enframe: %w", err)
	}
	return bin, nil
}

// target is a serving instance under test: where to send requests, which
// process's memory to read, and how to stop it.
type target struct {
	base string
	hc   *http.Client
	pid  int // 0: the server runs inside this process
	stop func() error
}

// newClient returns the one HTTP client of a workload: keep-alive, and never
// more connections than callers.
func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxIdleConnsPerHost: callers,
			MaxConnsPerHost:     callers,
		},
		Timeout: 60 * time.Second,
	}
}

// startChild boots `enframe serve` with its default configuration on an
// ephemeral loopback port and waits for the LISTEN line of the spawn
// protocol. The child's stderr (access log included — it is on by default)
// goes to logPath.
func startChild(bin, logPath string) (*target, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "serve", "-addr", "127.0.0.1:0", "-grace", "5s")
	cmd.Stderr = logf
	out, err := cmd.StdoutPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	reap := func() {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
		logf.Close()
	}
	boot := time.AfterFunc(30*time.Second, func() { _ = cmd.Process.Kill() })
	sc := bufio.NewScanner(out)
	addr := ""
	for sc.Scan() {
		if _, err := fmt.Sscanf(sc.Text(), "LISTEN %s", &addr); err == nil {
			break
		}
	}
	boot.Stop()
	if addr == "" {
		reap()
		return nil, fmt.Errorf("enframe serve printed no LISTEN line (see %s)", logPath)
	}
	// The server prints nothing more on stdout; drain it anyway so a future
	// line cannot block the child, and wait for the drain before Wait.
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		_, _ = io.Copy(io.Discard, out)
	}()
	hc := newClient()
	return &target{
		base: "http://" + addr,
		hc:   hc,
		pid:  cmd.Process.Pid,
		stop: func() error {
			hc.CloseIdleConnections()
			_ = cmd.Process.Signal(syscall.SIGTERM)
			kill := time.AfterFunc(10*time.Second, func() { _ = cmd.Process.Kill() })
			<-drained
			err := cmd.Wait()
			kill.Stop()
			logf.Close()
			if err != nil {
				return fmt.Errorf("enframe serve exit: %w (see %s)", err, logPath)
			}
			return nil
		},
	}, nil
}

// startInProcess serves the same handler from inside this process: what the
// tests' dry runs use instead of a child, so `go test` builds no binary and
// spawns nothing.
func startInProcess() *target {
	srv := server.New(server.Config{})
	ts := httptest.NewServer(srv.Handler())
	hc := newClient()
	return &target{
		base: ts.URL,
		hc:   hc,
		// A server that was never started has nothing to shut down: it owns
		// no listener and no goroutines.
		stop: func() error {
			hc.CloseIdleConnections()
			ts.Close()
			return nil
		},
	}
}

// post sends one JSON request and reads the whole reply into buf. Every
// workload is built so that no request is refused, so any status but 200 is
// an error, carrying the server's message.
func (t *target) post(path string, req any, buf *bytes.Buffer) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	resp, err := t.hc.Post(t.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(buf.Bytes()))
	}
	return nil
}

// postInto is post for the set-up calls whose reply is decoded.
func (t *target) postInto(path string, req, out any) error {
	var buf bytes.Buffer
	if err := t.post(path, req, &buf); err != nil {
		return err
	}
	return json.Unmarshal(buf.Bytes(), out)
}
