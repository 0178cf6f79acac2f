// Command alic-serve hosts the multi-tenant tuning service: many
// named learner sessions — per-tenant, per-kernel — stepped by a fair
// weighted round-robin scheduler and exposed over HTTP/JSON (see the
// README's "Serving" section for the API and a curl walkthrough).
//
// Usage:
//
//	alic-serve -addr :8347
//	alic-serve -addr :8347 -checkpoint-dir /var/lib/alic
//
// With -checkpoint-dir every session checkpoints itself to disk as it
// steps, and a restarted server reloads the whole fleet — statuses,
// cost ledgers, and parked remote rounds intact — before accepting
// traffic (see the README's "Persistence & recovery" section).
//
// For throughput and latency figures of served sessions, run the
// end-to-end benchmark in e2ebench/ (served-remote and
// served-checkpointed workloads).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"alic/internal/serve"

	// The serve package is provider-agnostic; the binary decides which
	// search spaces are hostable. Exec-backed (live) spaces are
	// excluded — the serving layer rejects them anyway.
	_ "alic/internal/space/spaptspace"
	_ "alic/internal/space/synthetic"
)

func main() {
	var (
		addr        = flag.String("addr", ":8347", "listen address")
		workers     = flag.Int("workers", 0, "scheduler workers stepping sessions (0 = all cores)")
		maxSessions = flag.Int("max-sessions", 0, "server-wide live-session cap (0 = default)")
		maxPer      = flag.Int("max-per-tenant", 0, "per-tenant live-session cap (0 = default)")
		ckptDir     = flag.String("checkpoint-dir", "", "directory for per-session crash-recovery checkpoints (empty = no persistence)")
		ckptEvery   = flag.Int("checkpoint-every", 1, "checkpoint cadence: write every k-th step per session (terminal steps always checkpoint)")
	)
	flag.Parse()

	opts := serve.Options{
		Workers:              *workers,
		MaxSessions:          *maxSessions,
		MaxSessionsPerTenant: *maxPer,
		CheckpointDir:        *ckptDir,
		CheckpointEvery:      *ckptEvery,
	}

	srv := serve.NewServer(opts)
	if *ckptDir != "" {
		// Crash recovery: reload every checkpointed session before
		// accepting traffic. Corrupt files are skipped (and reported),
		// never fatal — a damaged checkpoint must not keep the healthy
		// rest of the fleet down.
		n, err := srv.Recover()
		if err != nil {
			fmt.Fprintf(os.Stderr, "alic-serve: recovery skipped damaged checkpoints: %v\n", err)
		}
		if n > 0 {
			fmt.Fprintf(os.Stderr, "alic-serve: recovered %d sessions from %s\n", n, *ckptDir)
		}
	}
	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		shctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = hs.Shutdown(shctx)
	}()
	fmt.Fprintf(os.Stderr, "alic-serve: listening on %s\n", *addr)
	err := hs.ListenAndServe()
	srv.Close()
	if err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "alic-serve:", err)
	os.Exit(1)
}
