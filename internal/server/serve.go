package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// Serve is the process half of both daemons: listen on addr, print the
// handshake line, serve c's handler until SIGTERM or SIGINT, drain,
// shut the HTTP side down. It returns the drain's error, or the
// listener's if serving failed first.
func Serve(c *Core, addr string, drain time.Duration) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	// The resolved address is the startup handshake: scripts that start
	// a daemon on port 0 read it from stdout.
	fmt.Printf("%s: listening on %s\n", c.name, ln.Addr())

	httpSrv := &http.Server{Handler: c.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, os.Interrupt)
	select {
	case err := <-serveErr:
		return fmt.Errorf("serve: %w", err)
	case got := <-sig:
		fmt.Printf("%s: %s: draining (deadline %s)\n", c.name, got, drain)
	}

	// Drain first — the listener stays up so in-flight jobs stay
	// reachable (held waits are answered as they finish) and new
	// submissions receive an explicit 503 instead of a connection
	// refusal — then close the HTTP side.
	drainErr := c.Drain(drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(os.Stderr, "%s: shutdown: %v\n", c.name, err)
	}
	return drainErr
}
