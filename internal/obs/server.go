package obs

import (
	"net"
	"net/http"
	"time"
)

// The telemetry server gives a client headerTimeout to send its request
// headers and closes a keep-alive connection after idleTimeout without
// a request, so a stalled client cannot hold a connection forever.
const (
	headerTimeout = 10 * time.Second
	idleTimeout   = 2 * time.Minute
)

// Server serves the observer's latest published snapshot and trace
// dump over HTTP.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Serve starts an HTTP server on addr exposing /metrics (the latest
// snapshot JSON line) and /trace (the latest trace ring dump). Both
// return 503 until the first snapshot has been published. The server
// runs on its own goroutine; the simulation stays single-threaded —
// handlers only read the published copies under the observer's lock.
func (o *Observer) Serve(addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, o.MetricsJSON())
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, o.TraceJSON())
	})
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: headerTimeout, IdleTimeout: idleTimeout}
	go srv.Serve(ln)
	return &Server{ln: ln, srv: srv}, nil
}

// writeJSON writes one published JSON line, or 503 when none exists
// yet.
func writeJSON(w http.ResponseWriter, b []byte) {
	if b == nil {
		http.Error(w, "no snapshot published yet", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(b)
}

// Addr returns the address the server is listening on (useful with
// ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close shuts the server down.
func (s *Server) Close() error { return s.srv.Close() }
