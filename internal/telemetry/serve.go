package telemetry

import (
	"net"
	"net/http"
	"net/http/pprof"
)

// Server is a live telemetry HTTP endpoint.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Register mounts the telemetry endpoints on an existing mux:
//
//	/metrics     Prometheus text exposition of reg
//	/debug/pprof net/http/pprof profiles
//
// Serve uses it on a fresh mux with a pipeline's registry; servers with
// routes of their own (the quickdropd ops console) mount the same handlers
// next to theirs, on the registry their instruments live on. A nil reg
// serves an empty exposition.
func Register(mux *http.ServeMux, reg *Registry) {
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		// A write error means the scraper hung up; nothing to report to.
		_ = reg.WritePrometheus(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// Serve starts an HTTP server on addr (e.g. ":9090" or "127.0.0.1:0")
// exposing the Register endpoints. It returns once the listener is
// bound; requests are served on a background goroutine until Close.
func Serve(addr string, p *Pipeline) (*Server, error) {
	mux := http.NewServeMux()
	var reg *Registry
	if p != nil {
		reg = p.Registry
	}
	Register(mux, reg)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{ln: ln, srv: &http.Server{Handler: mux}}
	// Serve always returns a non-nil error once Close tears it down.
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

// Addr returns the bound address (useful with ":0").
func (s *Server) Addr() string {
	if s == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close stops the server. Nil-safe.
func (s *Server) Close() error {
	if s == nil {
		return nil
	}
	return s.srv.Close()
}
