// Package obshttp serves a live observability view of a MICCO run over
// plain net/http: Prometheus text and JSON metrics, per-placement decision
// records as NDJSON, a Chrome trace of the flight recorder's recent
// activity, the full flight-recorder snapshot (including the last
// automatic failure dump), health, and the standard pprof handlers. It has
// no dependencies outside the standard library and the repo's own obs and
// gpusim layers.
//
// Embed it with Handler (any mux) or run it with Serve; cmd/miccorun
// exposes it behind -serve.
package obshttp

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"micco/internal/gpusim"
	"micco/internal/obs"
)

// endpoints drives both the mux and the index page, so the two cannot
// drift.
var endpoints = []struct{ path, desc string }{
	{"/healthz", "liveness probe (200 ok)"},
	{"/metrics", "Prometheus text exposition of the attached registry"},
	{"/metrics.json", "JSON snapshot: counters, gauges, histograms, spans"},
	{"/decisions", "per-placement decision records, newline-delimited JSON"},
	{"/trace", "Chrome trace (chrome://tracing, ui.perfetto.dev) of the flight recorder's recent events and decisions"},
	{"/flight", "flight-recorder snapshot as JSON (?dump=1 returns the last failure dump instead)"},
	{"/debug/pprof/", "Go runtime profiles of the serving process"},
}

// Handler returns an http.Handler exposing reg. The handler reads the
// registry live — each request observes the run's current state — and is
// safe for concurrent use with an in-flight run. A nil registry serves
// empty-but-valid payloads on every endpoint, so a server can be mounted
// before a run is configured.
func Handler(reg *obs.Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "micco observability server\n\n")
		for _, ep := range endpoints {
			fmt.Fprintf(w, "%-16s %s\n", ep.path, ep.desc)
		}
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := reg.WritePrometheus(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		snap := reg.Snapshot()
		if snap == nil {
			snap = &obs.Snapshot{}
		}
		writeJSON(w, snap)
	})
	mux.HandleFunc("/decisions", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		if err := obs.WriteDecisionsNDJSON(w, reg.Decisions()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, _ *http.Request) {
		snap := reg.FlightRecorder().Snapshot()
		if snap == nil {
			snap = &obs.FlightSnapshot{}
		}
		w.Header().Set("Content-Type", "application/json")
		if err := gpusim.WriteChromeTraceMerged(w, snap.Events, snap.Decisions); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/flight", func(w http.ResponseWriter, r *http.Request) {
		fr := reg.FlightRecorder()
		var snap *obs.FlightSnapshot
		if r.URL.Query().Get("dump") != "" {
			if snap = fr.LastDump(); snap == nil {
				http.Error(w, "no failure dump recorded", http.StatusNotFound)
				return
			}
		} else if snap = fr.Snapshot(); snap == nil {
			snap = &obs.FlightSnapshot{}
		}
		writeJSON(w, snap)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// writeJSON renders v as indented JSON with sorted struct fields (maps
// are sorted by encoding/json already).
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// Server is a running observability HTTP server.
type Server struct {
	ln   net.Listener
	srv  *http.Server
	done chan error
}

// Serve starts serving reg's observability view on addr (e.g. ":9090", or
// "127.0.0.1:0" to pick a free port — read the result from Addr). It
// returns once the listener is bound; serving continues in the background
// until Close or Shutdown.
func Serve(addr string, reg *obs.Registry) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obshttp: listen %s: %w", addr, err)
	}
	s := &Server{
		ln:   ln,
		srv:  &http.Server{Handler: Handler(reg), ReadHeaderTimeout: 10 * time.Second},
		done: make(chan error, 1),
	}
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

// Addr returns the server's bound address (host:port).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// URL returns the server's base URL.
func (s *Server) URL() string { return "http://" + addrURLHost(s.ln.Addr()) }

// addrURLHost renders a listener address for URLs, mapping the unspecified
// host (":9090") to localhost.
func addrURLHost(a net.Addr) string {
	host, port, err := net.SplitHostPort(a.String())
	if err != nil {
		return a.String()
	}
	if ip := net.ParseIP(host); ip == nil || ip.IsUnspecified() {
		host = "localhost"
	}
	return net.JoinHostPort(host, port)
}

// Close stops the server immediately, dropping in-flight requests.
func (s *Server) Close() error {
	err := s.srv.Close()
	<-s.done
	return err
}

// Shutdown stops the server gracefully, draining in-flight requests until
// ctx expires.
func (s *Server) Shutdown(ctx context.Context) error {
	err := s.srv.Shutdown(ctx)
	<-s.done
	return err
}
