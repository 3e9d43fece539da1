package dist

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"
	"time"

	"enframe/internal/prob"
)

func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{nil, {}, []byte("{}"), []byte(`{"version":1,"slots":4}`), bytes.Repeat([]byte("x"), 3<<20)}
	for _, mt := range []MsgType{MsgHello, MsgHelloAck, MsgJob, MsgResult, MsgPing, MsgPong, MsgError} {
		for _, p := range payloads {
			var buf bytes.Buffer
			if err := WriteFrame(&buf, mt, p); err != nil {
				t.Fatalf("%v: write: %v", mt, err)
			}
			gt, gp, err := ReadFrame(&buf)
			if err != nil {
				t.Fatalf("%v: read: %v", mt, err)
			}
			if gt != mt || !bytes.Equal(gp, p) {
				t.Fatalf("%v: round trip mismatch: got %v, %d bytes", mt, gt, len(gp))
			}
		}
	}
}

func TestFrameCleanEOF(t *testing.T) {
	_, _, err := ReadFrame(bytes.NewReader(nil))
	if err != io.EOF {
		t.Fatalf("empty stream: want io.EOF, got %v", err)
	}
}

// frame builds a raw frame with full control over every header byte.
func frame(version byte, mt byte, length uint32, payload []byte) []byte {
	b := []byte{frameMagic[0], frameMagic[1], version, mt,
		byte(length >> 24), byte(length >> 16), byte(length >> 8), byte(length)}
	return append(b, payload...)
}

func TestFrameTruncatedHeader(t *testing.T) {
	full := frame(ProtocolVersion, byte(MsgPing), 2, []byte("{}"))
	for cut := 1; cut < headerSize; cut++ {
		_, _, err := ReadFrame(bytes.NewReader(full[:cut]))
		if !errors.Is(err, ErrTruncated) {
			t.Fatalf("cut %d: want ErrTruncated, got %v", cut, err)
		}
		if !IsProtocolError(err) {
			t.Fatalf("cut %d: truncated header must classify as protocol error", cut)
		}
	}
}

func TestFrameTruncatedPayload(t *testing.T) {
	full := frame(ProtocolVersion, byte(MsgPing), 10, []byte("short"))
	_, _, err := ReadFrame(bytes.NewReader(full))
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("want ErrTruncated, got %v", err)
	}
}

func TestFrameLyingLength(t *testing.T) {
	// A length close to the cap with almost no data must fail with
	// ErrTruncated after reading only what exists — not allocate 64 MiB.
	full := frame(ProtocolVersion, byte(MsgJob), MaxFrameSize-1, []byte("tiny"))
	_, _, err := ReadFrame(bytes.NewReader(full))
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("want ErrTruncated, got %v", err)
	}
}

func TestFrameBadMagic(t *testing.T) {
	raw := []byte("GET / HTTP/1.1\r\n\r\n")
	_, _, err := ReadFrame(bytes.NewReader(raw))
	if !errors.Is(err, ErrBadMagic) {
		t.Fatalf("want ErrBadMagic, got %v", err)
	}
}

func TestFrameVersionMismatch(t *testing.T) {
	raw := frame(ProtocolVersion+7, byte(MsgHello), 0, nil)
	_, _, err := ReadFrame(bytes.NewReader(raw))
	var ve *VersionError
	if !errors.As(err, &ve) {
		t.Fatalf("want *VersionError, got %v", err)
	}
	if ve.Got != ProtocolVersion+7 || ve.Want != ProtocolVersion {
		t.Fatalf("version error fields: %+v", ve)
	}
	if !IsProtocolError(err) {
		t.Fatal("version mismatch must classify as protocol error")
	}
}

func TestFrameBadType(t *testing.T) {
	for _, mt := range []byte{0, byte(MsgError) + 1, 200} {
		raw := frame(ProtocolVersion, mt, 0, nil)
		_, _, err := ReadFrame(bytes.NewReader(raw))
		if !errors.Is(err, ErrBadType) {
			t.Fatalf("type %d: want ErrBadType, got %v", mt, err)
		}
	}
}

func TestFrameTooLarge(t *testing.T) {
	raw := frame(ProtocolVersion, byte(MsgJob), MaxFrameSize+1, nil)
	_, _, err := ReadFrame(bytes.NewReader(raw))
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("read: want ErrTooLarge, got %v", err)
	}
	var sink bytes.Buffer
	if err := WriteFrame(&sink, MsgJob, make([]byte, MaxFrameSize+1)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("write: want ErrTooLarge, got %v", err)
	}
}

func TestIsProtocolErrorNegative(t *testing.T) {
	if IsProtocolError(nil) || IsProtocolError(io.EOF) || IsProtocolError(errors.New("boom")) {
		t.Fatal("IsProtocolError misclassifies unrelated errors")
	}
}

// TestSessionKeyStability pins the session key to its inputs: same inputs
// agree, any differing input disagrees.
func TestSessionKeyStability(t *testing.T) {
	base := prob.Options{Strategy: prob.Exact, JobDepth: 3, Heuristic: prob.FanoutOrder}
	k := SessionKey("abc", base)
	if k != SessionKey("abc", base) {
		t.Fatal("session key not deterministic")
	}
	if k == SessionKey("abd", base) {
		t.Fatal("artifact key not hashed")
	}
	eps := base
	eps.Epsilon = 0.1
	if k == SessionKey("abc", eps) {
		t.Fatal("epsilon not hashed")
	}
}

// TestSessionWirePinned holds a session's wire form to protocol 3's
// literals: the session keys of two fixed (artifact key, options) pairs, one
// exact and one hybrid with ε, and the encoded load member of a job frame.
// A worker caches sessions by that key and decodes that load, so changing
// either needs a ProtocolVersion bump. Options a session does not fix
// (workers, simulation) change neither.
func TestSessionWirePinned(t *testing.T) {
	const art = "0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef"
	exact := prob.Options{Strategy: prob.Exact, JobDepth: 3, Heuristic: prob.FanoutOrder}
	hybrid := prob.Options{Strategy: prob.Hybrid, Epsilon: 0.05, JobDepth: 2, Heuristic: prob.InputOrder,
		Timeout: 1500 * time.Millisecond, Workers: 4, SimulateWorkers: true}
	for _, c := range []struct {
		opts prob.Options
		want string
	}{
		{exact, "f2c812eea0e66de1c5535e294d8cbebe"},
		{hybrid, "614e45138c1dd57ac023932ffed91c86"},
	} {
		if got := SessionKey(art, c.opts); got != c.want {
			t.Errorf("SessionKey(%v) = %s, want %s", c.opts.Strategy, got, c.want)
		}
	}

	jm := jobMsg{SessionKey: SessionKey(art, hybrid), WireJob: prob.WireJob{ID: 9, P: 1, E: []float64{0.1, 0.1}},
		Load: &loadMsg{ArtifactKey: art, Spec: []byte(`{"data":{"kind":"gen","seed":1}}`), Opts: hybrid}}
	const wantJob = `{"session_key":"614e45138c1dd57ac023932ffed91c86","id":9,"p":1,"e":[0.1,0.1],` +
		`"load":{"artifact_key":"` + art + `","spec":{"data":{"kind":"gen","seed":1}},` +
		`"opts":{"strategy":"hybrid","epsilon":0.05,"job_depth":2,"heuristic":"input","timeout_ns":1500000000}}}`
	if got := string(encode(jm)); got != wantJob {
		t.Errorf("job frame\n got %s\nwant %s", got, wantJob)
	}
	var back jobMsg
	if err := decode([]byte(wantJob), &back); err != nil {
		t.Fatal(err)
	}
	want := hybrid
	want.Workers, want.SimulateWorkers = 0, false
	if back.Load == nil || !reflect.DeepEqual(back.Load.Opts, want) {
		t.Errorf("decoded load options %+v, want %+v", back.Load, want)
	}
	if SessionKey(art, back.Load.Opts) != jm.SessionKey {
		t.Error("the decoded load derives another session key")
	}
}

// TestBadLoadOptionsFailDecode: a load naming a strategy or heuristic the
// options types do not know fails the job frame's decode with a
// *FrameError, which closes the connection like any malformed frame.
func TestBadLoadOptionsFailDecode(t *testing.T) {
	for _, opts := range badLoadOptions {
		var jm jobMsg
		err := decode(badLoadJob(opts), &jm)
		var fe *FrameError
		if !errors.As(err, &fe) {
			t.Errorf("opts %s: decode error %v, want a *FrameError", opts, err)
		}
	}
}

// badLoadOptions are load options protocol 3 refuses: the removed circuit
// strategy and an unknown heuristic.
var badLoadOptions = []string{
	`{"strategy":"circuit","job_depth":2,"heuristic":"fanout"}`,
	`{"strategy":"exact","job_depth":2,"heuristic":"random"}`,
}

// badLoadJob is a job frame's payload whose load carries opts.
func badLoadJob(opts string) []byte {
	return []byte(`{"session_key":"s","id":8,"p":1,"e":[0,0],` +
		`"load":{"artifact_key":"a","spec":{"data":{"kind":"gen","seed":1}},"opts":` + opts + `}}`)
}

// TestWireNames pins the protocol-3 JSON of a job frame carrying a load and
// of a result frame: prob's job types are the wire form, so renaming one of
// their fields would change the protocol.
func TestWireNames(t *testing.T) {
	jm := jobMsg{
		SessionKey: "s",
		WireJob: prob.WireJob{ID: 7, Path: []prob.Assign{{Var: 3, Val: true}}, OI: 2, P: 0.5,
			E: []float64{0.25}, Timeout: time.Second},
		Load: &loadMsg{ArtifactKey: "a", Spec: []byte(`{}`), Opts: prob.Options{Strategy: prob.Exact, JobDepth: 2, Heuristic: prob.FanoutOrder}},
	}
	const wantJob = `{"session_key":"s","id":7,"path":[{"v":3,"b":true}],"oi":2,"p":0.5,"e":[0.25],"timeout_ns":1000000000,` +
		`"load":{"artifact_key":"a","spec":{},"opts":{"strategy":"exact","job_depth":2,"heuristic":"fanout"}}}`
	if got := string(encode(jm)); got != wantJob {
		t.Errorf("job frame\n got %s\nwant %s", got, wantJob)
	}
	rm := resultMsg{OK: true, WireResult: prob.WireResult{ID: 7, TimedOut: true, Residual: []float64{0},
		Items: []prob.WireItem{{Kind: prob.ItemAdd, Target: 1, IsTrue: true, Mass: 0.25}, {Kind: prob.ItemFork}},
		Forks: []prob.WireFork{{OI: 4, P: 0.5, E: []float64{0}}},
		Stats: prob.JobStats{Branches: 3, Assignments: 4, MaskUpdates: 5, BudgetPrunes: 6, MaxDepth: 2}}}
	const wantResult = `{"id":7,"items":[{"k":0,"t":1,"b":true,"m":0.25},{"k":1}],"forks":[{"oi":4,"p":0.5,"e":[0]}],` +
		`"residual":[0],"timed_out":true,"stats":{"branches":3,"assignments":4,"mask_updates":5,"budget_prunes":6,"max_depth":2},"ok":true}`
	if got := string(encode(rm)); got != wantResult {
		t.Errorf("result frame\n got %s\nwant %s", got, wantResult)
	}
	var back resultMsg
	if err := decode([]byte(wantResult), &back); err != nil || back.ID != 7 || len(back.Items) != 2 || back.Stats.MaxDepth != 2 {
		t.Errorf("result frame decode: %+v, %v", back, err)
	}
}
