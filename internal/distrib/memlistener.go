package distrib

import (
	"context"
	"net"
	"net/http"
	"sync"
)

// MemListener is an in-process net.Listener over synchronous pipes — the
// coordinator protocol without a socket, for tests and benchmarks that
// want the full HTTP round trip (serialization, routing, streaming
// bodies) with no kernel in the loop.
type MemListener struct {
	conns  chan net.Conn
	closed chan struct{}
	once   sync.Once
}

// NewMemListener returns a listener ready to Accept.
func NewMemListener() *MemListener {
	return &MemListener{conns: make(chan net.Conn), closed: make(chan struct{})}
}

// Accept waits for the next Dial.
func (l *MemListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.closed:
		return nil, net.ErrClosed
	}
}

// Close unblocks Accept and fails future Dials.
func (l *MemListener) Close() error {
	l.once.Do(func() { close(l.closed) })
	return nil
}

// Addr returns a placeholder address.
func (l *MemListener) Addr() net.Addr { return memAddr{} }

// Dial opens one in-memory connection to the listener.
func (l *MemListener) Dial(ctx context.Context) (net.Conn, error) {
	server, client := net.Pipe()
	select {
	case l.conns <- server:
		return client, nil
	case <-l.closed:
		server.Close()
		client.Close()
		return nil, net.ErrClosed
	case <-ctx.Done():
		server.Close()
		client.Close()
		return nil, ctx.Err()
	}
}

// Client returns an HTTP client whose every connection dials this
// listener, whatever URL host it is given.
func (l *MemListener) Client() *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
				return l.Dial(ctx)
			},
		},
	}
}

type memAddr struct{}

func (memAddr) Network() string { return "mem" }
func (memAddr) String() string  { return "mem" }
