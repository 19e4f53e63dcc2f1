package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"time"

	"gpushare/internal/client"
)

// daemon is one gserved or gsched subprocess on loopback.
type daemon struct {
	name string
	url  string
	args []string
	log  string // its stdout and stderr
	cmd  *exec.Cmd
	done chan error
}

// freeAddr asks the kernel for a free loopback port.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// newDaemon prepares a daemon on a free port; the flags after -addr are
// the only ones the benchmark passes.
func newDaemon(o *options, name string, args ...string) (*daemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	return &daemon{name: name, url: "http://" + addr, log: filepath.Join(o.tmp, name+".log"),
		args: append([]string{"-addr", addr}, args...)}, nil
}

// start executes the binary. The child dies with the benchmark even if
// the benchmark is killed.
func (d *daemon) start(o *options) error {
	logf, err := os.OpenFile(d.log, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer logf.Close()
	bin, err := filepath.Abs(filepath.Join(o.out, d.name))
	if err != nil {
		return err
	}
	d.cmd = exec.Command(bin, d.args...)
	d.cmd.Stdout, d.cmd.Stderr = logf, logf
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		return fmt.Errorf("%s: %w (run.sh builds it)", d.name, err)
	}
	d.done = make(chan error, 1)
	go func(cmd *exec.Cmd, done chan error) { done <- cmd.Wait() }(d.cmd, d.done)
	return nil
}

// waitReady polls /readyz until the daemon reports the wanted state.
// gsched is "degraded" until a probe has marked its worker alive.
func (d *daemon) waitReady(timeout time.Duration) error {
	cl := client.New(d.url)
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		select {
		case err := <-d.done:
			d.done <- err
			return fmt.Errorf("%s exited before it was ready: %v\n%s", d.name, err, d.logTail())
		default:
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		st, err := cl.Ready(ctx)
		cancel()
		if err == nil && st.Ready && st.State == "ready" {
			return nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("%s not ready after %s\n%s", d.name, timeout, d.logTail())
}

// stop drains the daemon with SIGTERM and waits until it has ended; a
// daemon that does not end in time is killed.
func (d *daemon) stop() error {
	if d.cmd == nil {
		return nil
	}
	defer func() { d.cmd = nil }()
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // already gone is fine: Wait reports how it ended
	select {
	case err := <-d.done:
		if err != nil {
			return fmt.Errorf("%s: %w\n%s", d.name, err, d.logTail())
		}
		return nil
	case <-time.After(20 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
		return fmt.Errorf("%s did not drain, killed\n%s", d.name, d.logTail())
	}
}

// kill ends the daemon at once, on a failure path.
func (d *daemon) kill() {
	if d.cmd != nil {
		_ = d.cmd.Process.Kill()
		<-d.done
		d.cmd = nil
	}
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

func (d *daemon) logTail() string {
	blob, err := os.ReadFile(d.log)
	if err != nil {
		return ""
	}
	if len(blob) > 2000 {
		blob = blob[len(blob)-2000:]
	}
	return string(blob)
}
