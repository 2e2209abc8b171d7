package transport

// pollerListen, when non-nil, builds a listener whose accepted connections
// implement EventConn over real TCP — set by the platform poller package
// (netpoll) from its init on capable platforms. Registration is init-time
// only, so reads need no synchronization.
var pollerListen func(addr string) (Listener, error)

// RegisterPoller installs the platform poller's listener constructor. It is
// called from the poller package's init; calling it later than init is a
// programming error (the variable is read without synchronization).
func RegisterPoller(listen func(addr string) (Listener, error)) {
	pollerListen = listen
}

// PollerCapable reports whether a platform readiness poller is registered,
// i.e. whether ListenEventTCP returns event-capable connections.
func PollerCapable() bool { return pollerListen != nil }

// ListenEventTCP starts a TCP listener whose accepted connections implement
// EventConn when the platform has a readiness poller, and plain dedicated-
// reader connections otherwise. reducesrv and the benchmark listen through
// it: combined with the accept loop's EventConn type assertion, one code path
// serves both worlds and the poller is pure capability, never requirement.
func ListenEventTCP(addr string) (Listener, error) {
	if pollerListen == nil {
		return ListenTCP(addr)
	}
	return pollerListen(addr)
}
