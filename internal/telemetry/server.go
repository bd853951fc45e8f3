package telemetry

// The per-process introspection endpoint. The server owns no data: it
// reads everything through the callbacks in Sources, which the process
// composes from whatever worlds it is running (see pcu.TelemetrySources
// and cmdutil.StartListen). Every handler is collective-free — reads go
// through atomics and ring snapshots only — so scraping a live run
// never participates in, or perturbs, the communication schedule.

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"
)

// Health is the live verdict of every active world's barrier.
type Health struct {
	Healthy bool     `json:"healthy"`
	Worlds  int      `json:"worlds"`
	Lines   []string `json:"lines,omitempty"`
}

// Sources supplies the data the endpoint serves. Any field may be nil
// or zero; the corresponding route then serves an empty-but-valid
// document rather than failing, so a partially wired process is still
// scrapable.
type Sources struct {
	// Metrics backs /metrics (Prometheus text exposition).
	Metrics *Registry
	// TraceJSON writes the live per-rank ring tails as a Chrome-trace
	// JSON document (schema pumi-trace/chrome/1); backs /trace.
	TraceJSON func(w io.Writer) error
	// Health returns the barriers' verdict; backs /healthz (503 when
	// unhealthy, 200 otherwise).
	Health func() Health
}

// Server is a running introspection endpoint.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Serve starts the endpoint on addr (e.g. "127.0.0.1:0" to pick a free
// port) and returns once it is accepting connections.
func Serve(addr string, src Sources) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: listen %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if src.Metrics == nil {
			fmt.Fprintln(w, "# no registry wired")
			return
		}
		_ = src.Metrics.WritePrometheus(w)
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if src.TraceJSON == nil {
			_, _ = io.WriteString(w, `{"traceEvents":[],"otherData":{"schema":"pumi-trace/chrome/1"}}`)
			return
		}
		if err := src.TraceJSON(w); err != nil {
			// Headers are already out; all we can do is cut the body so
			// the client sees truncated JSON rather than a silent lie.
			panic(http.ErrAbortHandler)
		}
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		h := Health{Healthy: true}
		if src.Health != nil {
			h = src.Health()
		}
		w.Header().Set("Content-Type", "application/json")
		if !h.Healthy {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(h)
	})
	s := &Server{
		ln: ln,
		srv: &http.Server{
			Handler:           mux,
			ReadHeaderTimeout: 5 * time.Second,
		},
	}
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

// Addr returns the bound listen address (useful with ":0").
func (s *Server) Addr() string {
	if s == nil || s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close stops the endpoint. In-flight handlers are abandoned; the
// endpoint is diagnostic, not load-bearing.
func (s *Server) Close() error {
	if s == nil || s.srv == nil {
		return nil
	}
	return s.srv.Close()
}
