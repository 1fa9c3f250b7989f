package server

import (
	"io"
	"net"
	"net/http"
	"testing"
	"time"
)

// TestHTTPServerTimeouts pins the listener timeouts of NewHTTPServer: both
// are set, and a client that stalls in the middle of its header block is
// disconnected once ReadHeaderTimeout passes.
func TestHTTPServerTimeouts(t *testing.T) {
	t.Parallel()
	hs := NewHTTPServer("", http.NotFoundHandler())
	if hs.ReadHeaderTimeout != ReadHeaderTimeout || hs.IdleTimeout != IdleTimeout {
		t.Fatalf("timeouts header=%v idle=%v, want %v and %v",
			hs.ReadHeaderTimeout, hs.IdleTimeout, ReadHeaderTimeout, IdleTimeout)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go hs.Serve(l)
	t.Cleanup(func() { hs.Close() })

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := io.WriteString(conn, "POST /v1/compile HTTP/1.1\r\nHost: x\r\nContent-Type: text/pl"); err != nil {
		t.Fatal(err)
	}
	// The server may answer 408 before closing; read until EOF (or a
	// reset) and time it. The read deadline bounds the test if the
	// server never closes.
	conn.SetReadDeadline(time.Now().Add(ReadHeaderTimeout + 5*time.Second))
	_, err = io.Copy(io.Discard, conn)
	elapsed := time.Since(start)
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatalf("connection with an incomplete header still open after %v", elapsed)
	}
	if elapsed > ReadHeaderTimeout+2*time.Second {
		t.Fatalf("connection closed after %v, want within %v", elapsed, ReadHeaderTimeout)
	}
}
