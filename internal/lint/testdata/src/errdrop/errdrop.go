// Fixture for the errdrop analyzer: wire/transport/journal errors must not
// be silently discarded.
package fixture

import (
	"io"

	"repro/internal/journal"
	"repro/internal/transport"
	"repro/internal/wire"
)

func bareCall(conn transport.Conn, m wire.Msg) {
	conn.Send(m) // want "error result of transport.Send dropped"
}

func deferredClose(w *journal.Writer) {
	defer w.Close() // want "error result of deferred journal.Close dropped"
}

func goStatement(conn transport.Conn, m wire.Msg) {
	go conn.Send(m) // want "unobservable in go statement"
}

func blankedTuple(b []byte) wire.Msg {
	m, _ := wire.Decode(b) // want "error result of wire.Decode assigned to blank"
	return m
}

// explicitDiscard is visible at the call site and accepted by convention.
func explicitDiscard(conn transport.Conn, m wire.Msg) {
	_ = conn.Send(m)
}

// checked is the normal path.
func checked(dst []byte, m wire.Msg) ([]byte, error) {
	frame, err := wire.AppendFrame(dst, m)
	if err != nil {
		return nil, err
	}
	return frame, nil
}

// otherPackagesUnwatched: dropping errors from arbitrary packages is vet's
// business, not this analyzer's.
func otherPackagesUnwatched(c io.Closer) {
	c.Close()
}
