//go:build !linux

package netpoll

import "repro/internal/transport"

// Available reports whether this platform has a readiness poller.
func Available() bool { return false }

// Poller is unavailable on this platform; connections fall back to the
// dedicated-reader TCP path (transport.ListenTCP). See the package comment.
type Poller struct{}

// NewPoller returns ErrUnavailable on platforms without a poller.
func NewPoller() (*Poller, error) { return nil, ErrUnavailable }

// Default returns ErrUnavailable on platforms without a poller.
func Default() (*Poller, error) { return nil, ErrUnavailable }

// Close implements the Poller API as a no-op.
func (p *Poller) Close() error { return nil }

// ListenTCP returns ErrUnavailable; callers fall back to
// transport.ListenTCP (transport.ListenEventTCP does this automatically).
func ListenTCP(addr string, opts ...Option) (transport.Listener, error) {
	return nil, ErrUnavailable
}

// DialTCP returns ErrUnavailable; callers fall back to transport.DialTCP.
func DialTCP(addr string, opts ...Option) (transport.Conn, error) {
	return nil, ErrUnavailable
}
