package main

import (
	"net/http"
	"testing"
)

// TestServeServerTimeouts: the -serve server bounds how long a client
// may take over its request headers and how long an idle keep-alive
// connection stays open, and sets no read or write timeout, which would
// cut a run's event stream short.
func TestServeServerTimeouts(t *testing.T) {
	s := newHTTPServer(":0", http.NotFoundHandler())
	if s.ReadHeaderTimeout <= 0 || s.IdleTimeout <= 0 {
		t.Fatalf("ReadHeaderTimeout %v, IdleTimeout %v: want both positive", s.ReadHeaderTimeout, s.IdleTimeout)
	}
	if s.ReadTimeout != 0 || s.WriteTimeout != 0 {
		t.Fatalf("ReadTimeout %v, WriteTimeout %v: want none on a streaming server", s.ReadTimeout, s.WriteTimeout)
	}
}
