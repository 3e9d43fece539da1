package dist

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// FuzzFrame hardens the wire decoder: arbitrary bytes must decode into
// either a valid frame or a typed error — never a panic, a hang, or an
// oversized allocation. Valid frames must re-encode byte-identically.
func FuzzFrame(f *testing.F) {
	// Seed corpus: every message type with representative payloads, plus
	// adversarial headers (checked into testdata/fuzz/FuzzFrame as well,
	// among them v1-hello and v2-hello: an older coordinator's first frame,
	// which must fail as a *VersionError).
	var seed bytes.Buffer
	_ = WriteFrame(&seed, MsgHello, []byte(`{"version":3,"name":"coordinator"}`))
	f.Add(seed.Bytes())
	seed.Reset()
	_ = WriteFrame(&seed, MsgJob, []byte(`{"session_key":"s","id":7,"path":[{"v":3,"b":true}],"p":0.5}`))
	f.Add(seed.Bytes())
	seed.Reset()
	_ = WriteFrame(&seed, MsgJob, []byte(`{"session_key":"s","id":8,"p":1,"e":[0,0],`+
		`"load":{"artifact_key":"a","spec":{"data":{"kind":"gen","seed":1}},"opts":{"strategy":"exact","job_depth":2,"heuristic":"fanout"}}}`))
	f.Add(seed.Bytes())
	seed.Reset()
	for _, opts := range badLoadOptions {
		_ = WriteFrame(&seed, MsgJob, badLoadJob(opts))
		f.Add(seed.Bytes())
		seed.Reset()
	}
	_ = WriteFrame(&seed, MsgResult, []byte(`{"id":7,"ok":true,"items":[{"k":0,"t":1,"m":0.25}]}`))
	f.Add(seed.Bytes())
	f.Add([]byte{})
	f.Add([]byte{frameMagic[0]})
	f.Add([]byte{frameMagic[0], frameMagic[1], ProtocolVersion, byte(MsgPing), 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{frameMagic[0], frameMagic[1], 99, byte(MsgPing), 0, 0, 0, 0})
	f.Add([]byte("GET / HTTP/1.1\r\n\r\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		mt, payload, err := ReadFrame(r)
		if err != nil {
			if errors.Is(err, io.EOF) && len(data) > 0 {
				// io.EOF is reserved for a clean close before any byte.
				t.Fatalf("io.EOF leaked for non-empty partial frame (%d bytes)", len(data))
			}
			if err != io.EOF && !IsProtocolError(err) {
				t.Fatalf("untyped decode error: %v", err)
			}
			// A whole header with our magic but another revision — e.g. a
			// v1 peer's hello — must fail as a version mismatch.
			var ve *VersionError
			if len(data) >= headerSize && data[0] == frameMagic[0] && data[1] == frameMagic[1] &&
				data[2] != ProtocolVersion && !errors.As(err, &ve) {
				t.Fatalf("revision-%d frame: want *VersionError, got %v", data[2], err)
			}
			return
		}
		if len(payload) > MaxFrameSize {
			t.Fatalf("decoded payload of %d bytes exceeds cap", len(payload))
		}
		if mt == MsgJob {
			// A job the worker cannot decode closes the connection before
			// any session loads; the failure must be typed.
			var jm jobMsg
			var fe *FrameError
			if err := decode(payload, &jm); err != nil && !errors.As(err, &fe) {
				t.Fatalf("untyped job decode error: %v", err)
			}
		}
		var buf bytes.Buffer
		if werr := WriteFrame(&buf, mt, payload); werr != nil {
			t.Fatalf("re-encode of valid frame failed: %v", werr)
		}
		consumed := len(data) - r.Len()
		if !bytes.Equal(buf.Bytes(), data[:consumed]) {
			t.Fatalf("re-encode not byte-identical: %x vs %x", buf.Bytes(), data[:consumed])
		}
	})
}
