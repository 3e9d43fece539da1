// Package dist is ENFrame's multi-process compilation plane: worker
// processes (enframe worker) hold caches of compiled event networks and
// execute depth-d decision-tree jobs shipped over TCP by a coordinator pool
// that implements prob.JobExecutor. The plane is stdlib-only: length-
// prefixed binary framing stamped with one protocol version, JSON payloads,
// per-worker heartbeats, retry-with-backoff and job reassignment on worker
// death, and deterministic fault injection for race-enabled tests. See
// DESIGN.md "Distributed plane".
package dist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// ProtocolVersion is the wire protocol revision, stamped in every frame
// header. Peers must speak exactly this revision: a frame stamped with any
// other fails with a VersionError, and a hello naming another revision is
// answered with a version MsgError, so a mismatched peer fails typed in both
// directions instead of hanging. The handshake carries both sides' clock
// readings (for the per-connection clock-offset estimate), job frames name
// their session and may carry its load and a trace context, and result
// frames may piggyback the worker-side span subtree and metric deltas.
const ProtocolVersion = 3

// MaxFrameSize bounds one frame's payload; larger lengths are rejected with
// ErrTooLarge before any allocation of that size.
const MaxFrameSize = 64 << 20

// frameMagic guards against cross-protocol traffic (e.g. HTTP) reaching a
// worker port.
var frameMagic = [2]byte{0xE5, 0x46} // "åF" — Event-network Frame

// headerSize is magic(2) + version(1) + type(1) + length(4).
const headerSize = 8

// MsgType discriminates frame payloads.
type MsgType uint8

const (
	// MsgHello/MsgHelloAck is the handshake; the coordinator speaks first.
	MsgHello MsgType = iota + 1
	MsgHelloAck
	// MsgJob ships one decision-tree job; MsgResult returns its stream.
	MsgJob
	MsgResult
	// MsgPing/MsgPong carry liveness nonces.
	MsgPing
	MsgPong
	// MsgError reports a protocol-level failure (e.g. version mismatch)
	// before the sender closes the connection.
	MsgError
)

func (t MsgType) String() string {
	switch t {
	case MsgHello:
		return "hello"
	case MsgHelloAck:
		return "hello_ack"
	case MsgJob:
		return "job"
	case MsgResult:
		return "result"
	case MsgPing:
		return "ping"
	case MsgPong:
		return "pong"
	case MsgError:
		return "error"
	}
	return fmt.Sprintf("MsgType(%d)", uint8(t))
}

// Typed frame-decoding failures. The serving layer maps any of these to
// HTTP 502 — a broken worker plane is an upstream failure, never a hang or
// panic.
var (
	// ErrTruncated marks a frame cut short mid-header or mid-payload.
	ErrTruncated = errors.New("dist: truncated frame")
	// ErrTooLarge marks a length field beyond MaxFrameSize.
	ErrTooLarge = errors.New("dist: frame exceeds size limit")
	// ErrBadMagic marks traffic that is not ENFrame wire protocol.
	ErrBadMagic = errors.New("dist: bad frame magic")
	// ErrBadType marks an unknown message type byte.
	ErrBadType = errors.New("dist: unknown frame type")
)

// VersionError reports a protocol-version mismatch between peers.
type VersionError struct {
	Got, Want uint8
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("dist: protocol version mismatch: peer speaks v%d, want v%d", e.Got, e.Want)
}

// FrameError wraps a frame-level failure with the operation that hit it.
type FrameError struct {
	Op  string
	Err error
}

func (e *FrameError) Error() string { return fmt.Sprintf("dist: %s: %v", e.Op, e.Err) }
func (e *FrameError) Unwrap() error { return e.Err }

// WriteFrame emits one frame: magic, ProtocolVersion, type, big-endian
// payload length, payload.
func WriteFrame(w io.Writer, t MsgType, payload []byte) error {
	if len(payload) > MaxFrameSize {
		return &FrameError{Op: "write", Err: ErrTooLarge}
	}
	var hdr [headerSize]byte
	hdr[0], hdr[1] = frameMagic[0], frameMagic[1]
	hdr[2] = ProtocolVersion
	hdr[3] = byte(t)
	binary.BigEndian.PutUint32(hdr[4:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return &FrameError{Op: "write header", Err: err}
	}
	if len(payload) > 0 {
		if _, err := w.Write(payload); err != nil {
			return &FrameError{Op: "write payload", Err: err}
		}
	}
	return nil
}

// ReadFrame decodes one frame. A clean EOF at a frame boundary returns
// io.EOF; EOF mid-frame returns ErrTruncated (wrapped in a FrameError); a
// version byte other than ProtocolVersion returns a VersionError. The decoder
// never panics and never allocates more than the bytes actually present: a
// lying length field fails with ErrTruncated after reading at most the
// available input, in bounded chunks.
func ReadFrame(r io.Reader) (MsgType, []byte, error) {
	var hdr [headerSize]byte
	if _, err := io.ReadFull(r, hdr[:1]); err != nil {
		if errors.Is(err, io.EOF) {
			return 0, nil, io.EOF // clean close between frames
		}
		return 0, nil, &FrameError{Op: "read header", Err: err}
	}
	if _, err := io.ReadFull(r, hdr[1:]); err != nil {
		return 0, nil, &FrameError{Op: "read header", Err: truncated(err)}
	}
	if hdr[0] != frameMagic[0] || hdr[1] != frameMagic[1] {
		return 0, nil, &FrameError{Op: "read header", Err: ErrBadMagic}
	}
	if hdr[2] != ProtocolVersion {
		return 0, nil, &VersionError{Got: hdr[2], Want: ProtocolVersion}
	}
	t := MsgType(hdr[3])
	if t < MsgHello || t > MsgError {
		return 0, nil, &FrameError{Op: "read header", Err: ErrBadType}
	}
	n := binary.BigEndian.Uint32(hdr[4:])
	if n > MaxFrameSize {
		return 0, nil, &FrameError{Op: "read payload", Err: ErrTooLarge}
	}
	payload, err := readPayload(r, int(n))
	if err != nil {
		return 0, nil, &FrameError{Op: "read payload", Err: truncated(err)}
	}
	return t, payload, nil
}

// readPayload reads exactly n bytes, growing in bounded chunks so a lying
// length field cannot force a large up-front allocation.
func readPayload(r io.Reader, n int) ([]byte, error) {
	const chunk = 1 << 20
	if n == 0 {
		return nil, nil
	}
	if n <= chunk {
		buf := make([]byte, n)
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, err
		}
		return buf, nil
	}
	buf := make([]byte, 0, chunk)
	for len(buf) < n {
		step := n - len(buf)
		if step > chunk {
			step = chunk
		}
		off := len(buf)
		buf = append(buf, make([]byte, step)...)
		if _, err := io.ReadFull(r, buf[off:]); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// truncated normalises the io errors of a short read to ErrTruncated.
func truncated(err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return fmt.Errorf("%w: %v", ErrTruncated, err)
	}
	return err
}

// IsProtocolError reports whether err is one of the plane's typed wire
// failures — the class the serving layer surfaces as 502 Bad Gateway.
func IsProtocolError(err error) bool {
	var ve *VersionError
	var fe *FrameError
	return errors.As(err, &ve) || errors.As(err, &fe)
}
