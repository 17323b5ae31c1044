// Package proc starts, probes and stops the server processes under test.
// Every process is registered with a Group so that one call — on success,
// on error or from a signal handler — kills and reaps all of them.
package proc

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"sync"
	"time"
)

// Proc is one running server.
type Proc struct {
	// URL is the server's base URL, http://127.0.0.1:<port>.
	URL string

	cmd    *exec.Cmd
	log    *os.File
	exited chan struct{} // closed once Wait has returned
}

// Group owns a set of processes.
type Group struct {
	mu     sync.Mutex
	procs  []*Proc
	closed bool
}

// freeAddr returns a loopback address whose port was free a moment ago.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("proc: finding a free port: %w", err)
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// Start launches bin with args plus "-addr <free loopback address>", sending
// its output to logPath. The process belongs to g from this moment.
func (g *Group) Start(bin string, args []string, logPath string) (*Proc, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logFile, err := os.Create(logPath)
	if err != nil {
		return nil, fmt.Errorf("proc: creating server log: %w", err)
	}
	cmd := exec.Command(bin, append(args, "-addr", addr)...)
	cmd.Stdout = logFile
	cmd.Stderr = logFile
	p := &Proc{URL: "http://" + addr, cmd: cmd, log: logFile, exited: make(chan struct{})}
	if err := cmd.Start(); err != nil {
		logFile.Close()
		return nil, fmt.Errorf("proc: starting %s: %w", bin, err)
	}
	go func() {
		// The exit status carries no information here: processes end by
		// Kill, and an early death is reported by WaitReady.
		_ = cmd.Wait()
		close(p.exited)
	}()
	g.mu.Lock()
	closed := g.closed
	if !closed {
		g.procs = append(g.procs, p)
	}
	g.mu.Unlock()
	if closed {
		p.Stop()
		return nil, fmt.Errorf("proc: group is closed")
	}
	return p, nil
}

// WaitReady polls GET /v1/stats until it answers 200. It fails when the
// process exits first or timeout passes.
func (p *Proc) WaitReady(client *http.Client, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		select {
		case <-p.exited:
			return fmt.Errorf("proc: %s exited before it was ready; see %s", p.cmd.Path, p.log.Name())
		default:
		}
		resp, err := client.Get(p.URL + "/v1/stats")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("proc: %s not ready after %v; see %s", p.cmd.Path, timeout, p.log.Name())
}

// RSSMiB returns the process's resident set now and PeakRSSMiB its peak so
// far; ok is false where the platform does not expose them.
func (p *Proc) RSSMiB() (mib float64, ok bool)     { return statusMiB(p.cmd.Process.Pid, "VmRSS:") }
func (p *Proc) PeakRSSMiB() (mib float64, ok bool) { return statusMiB(p.cmd.Process.Pid, "VmHWM:") }

// Stop kills the process and waits until it has been reaped.
func (p *Proc) Stop() {
	// Kill fails only when the process is already gone, which is the goal.
	_ = p.cmd.Process.Kill()
	<-p.exited
	p.log.Close()
}

// Close kills and reaps every process the group started and refuses any
// further Start, so a signal arriving mid-setup cannot orphan a server.
// Safe to call more than once and from a signal handler's goroutine.
func (g *Group) Close() {
	g.mu.Lock()
	procs := g.procs
	g.procs = nil
	g.closed = true
	g.mu.Unlock()
	for _, p := range procs {
		p.Stop()
	}
}
