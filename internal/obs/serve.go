package obs

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"time"
)

// WithPprof mounts the runtime profiling endpoints under /debug/pprof/ in
// front of h. Off by default and never on the DefaultServeMux — profiling
// a production scheduler is an explicit operator decision.
func WithPprof(h http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/", h)
	return mux
}

// Serve serves h on ln until a signal arrives on sig, then drains: drain
// stops the tier admitting work (its /healthz flips to 503, new requests
// get a typed "draining" error), and in-flight requests get up to grace to
// finish before the listener closes. It returns nil after a clean drain.
// Both serving tiers' mains end here.
func Serve(ln net.Listener, h http.Handler, sig <-chan os.Signal, drain func(), grace time.Duration, logger *log.Logger) error {
	hs := &http.Server{Handler: h}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()
	select {
	case err := <-errCh:
		return err
	case got := <-sig:
		logger.Printf("%v: draining (in-flight requests get %v)", got, grace)
		drain()
		ctx, cancel := context.WithTimeout(context.Background(), grace)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			return fmt.Errorf("drain incomplete: %w", err)
		}
		if err := <-errCh; !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		logger.Printf("drained cleanly")
		return nil
	}
}
