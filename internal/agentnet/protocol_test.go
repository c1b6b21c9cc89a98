package agentnet

import (
	"bytes"
	"io"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// message is the shared shape of every protocol message.
type message interface {
	Marshal() []byte
	Unmarshal([]byte) error
}

// sampleMessages returns one populated instance of every message type,
// keyed by its frame type byte. Kept in one place so the round-trip,
// fuzz-corpus, and frame tests all cover the same surface.
func sampleMessages() map[byte]message {
	return map[byte]message{
		MsgHello: &Hello{
			Version: ProtoVersion, Seed: -12345, Stochastic: true,
			ObsSize: 24, NumActions: 6, Nodes: []uint32{0, 3, 6, 9},
			WantCaps: CapBatch | CapModelPush, ModelHash: "deadbeef",
		},
		MsgHelloAck: &HelloAck{Version: ProtoVersion, AgentID: "127.0.0.1:9001#42", ModelHash: "deadbeef", Caps: CapBatch},
		MsgDecide: &Decide{
			Node: 7, Now: 123.456, Flow: 0xabcdef0123456789, Span: 77,
			Obs: []float64{0, 0.5, -1, math.MaxFloat64, 1e-300},
		},
		MsgAction: &Action{Action: -1, ServerNS: 41_000, InferNS: 12_345},
		MsgDecideBatch: &DecideBatch{
			Node: 2, Now: 99.25, Span: 31337, Width: 3,
			Rows: []float64{1, 2, 3, 4, 5, 6},
		},
		MsgActions:   &Actions{ServerNS: 90_000, InferNS: 45_000, Actions: []int32{0, 5, -1, 3}},
		MsgModelPush: &ModelPush{Hash: "cafe", Payload: []byte(`{"sizes":[2,2]}`)},
		MsgModelAck:  &ModelAck{Hash: "cafe", OK: false, Err: "hash mismatch"},
		MsgPing:      &Ping{Nonce: 0xfeedface},
		MsgPong:      &Pong{Nonce: 0xfeedface},
		MsgError:     &ErrorMsg{Msg: "boom"},
	}
}

func TestMessageRoundTrip(t *testing.T) {
	for typ, msg := range sampleMessages() {
		data := msg.Marshal()
		fresh := reflect.New(reflect.TypeOf(msg).Elem()).Interface().(message)
		if err := fresh.Unmarshal(data); err != nil {
			t.Errorf("type %d: unmarshal: %v", typ, err)
			continue
		}
		if !reflect.DeepEqual(msg, fresh) {
			t.Errorf("type %d: round trip mismatch:\n got %+v\nwant %+v", typ, fresh, msg)
		}
	}
}

// TestMessageRoundTripRandom is a property test: randomly populated
// messages must survive marshal→unmarshal bit-exactly, and every strict
// prefix of the encoding must fail to unmarshal (no silent truncation).
func TestMessageRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	randF64s := func(n int) []float64 {
		vs := make([]float64, n)
		for i := range vs {
			vs[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
		}
		return vs
	}
	randU32s := func(n int) []uint32 {
		vs := make([]uint32, n)
		for i := range vs {
			vs[i] = rng.Uint32()
		}
		return vs
	}
	randBytes := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	for trial := 0; trial < 200; trial++ {
		width := 1 + rng.Intn(8)
		msgs := []message{
			&Hello{
				Version: uint16(rng.Intn(1 << 16)), Seed: rng.Int63() - rng.Int63(),
				Stochastic: rng.Intn(2) == 0, ObsSize: rng.Uint32() % 1000,
				NumActions: rng.Uint32() % 100, Nodes: randU32s(rng.Intn(20)),
				WantCaps: rng.Uint32(), ModelHash: string(randBytes(rng.Intn(70))),
			},
			&Decide{
				Node: rng.Uint32(), Now: rng.Float64() * 1e6,
				Flow: rng.Uint64(), Span: rng.Uint64(), Obs: randF64s(rng.Intn(64)),
			},
			&DecideBatch{
				Node: rng.Uint32(), Now: rng.Float64(), Span: rng.Uint64(),
				Width: uint32(width), Rows: randF64s(width * rng.Intn(10)),
			},
			&Actions{ServerNS: rng.Uint64(), InferNS: rng.Uint64(), Actions: func() []int32 {
				vs := make([]int32, rng.Intn(20))
				for i := range vs {
					vs[i] = rng.Int31() - rng.Int31()
				}
				return vs
			}()},
			&ModelPush{Hash: string(randBytes(64)), Payload: randBytes(rng.Intn(4096))},
		}
		for _, msg := range msgs {
			data := msg.Marshal()
			fresh := reflect.New(reflect.TypeOf(msg).Elem()).Interface().(message)
			if err := fresh.Unmarshal(data); err != nil {
				t.Fatalf("trial %d %T: unmarshal: %v", trial, msg, err)
			}
			if !equalMessage(msg, fresh) {
				t.Fatalf("trial %d %T: round trip mismatch:\n got %+v\nwant %+v", trial, msg, fresh, msg)
			}
			if len(data) > 0 {
				cut := rng.Intn(len(data))
				prefix := reflect.New(reflect.TypeOf(msg).Elem()).Interface().(message)
				if err := prefix.Unmarshal(data[:cut]); err == nil {
					t.Fatalf("trial %d %T: %d-byte prefix of %d-byte encoding unmarshalled cleanly", trial, msg, cut, len(data))
				}
			}
		}
	}
}

// equalMessage compares messages treating nil and empty slices as equal
// (the codec cannot distinguish them, by design).
func equalMessage(a, b message) bool {
	va, vb := reflect.ValueOf(a).Elem(), reflect.ValueOf(b).Elem()
	for i := 0; i < va.NumField(); i++ {
		fa, fb := va.Field(i), vb.Field(i)
		if fa.Kind() == reflect.Slice && fa.Len() == 0 && fb.Len() == 0 {
			continue
		}
		// Float64 fields must match bit-for-bit, not under ==, so NaN
		// payloads count as equal when preserved.
		if !reflect.DeepEqual(bitsOf(fa), bitsOf(fb)) {
			return false
		}
	}
	return true
}

func bitsOf(v reflect.Value) any {
	switch v.Kind() {
	case reflect.Float64:
		return math.Float64bits(v.Float())
	case reflect.Slice:
		if v.Type().Elem().Kind() == reflect.Float64 {
			bits := make([]uint64, v.Len())
			for i := range bits {
				bits[i] = math.Float64bits(v.Index(i).Float())
			}
			return bits
		}
	}
	return v.Interface()
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	order := []byte{MsgHello, MsgDecide, MsgAction, MsgPing, MsgError}
	samples := sampleMessages()
	for _, typ := range order {
		if err := WriteFrame(&buf, typ, samples[typ].Marshal()); err != nil {
			t.Fatal(err)
		}
	}
	stream := buf.Bytes()

	// Reader path.
	r := bytes.NewReader(stream)
	for _, want := range order {
		typ, payload, err := ReadFrame(r)
		if err != nil {
			t.Fatal(err)
		}
		if typ != want {
			t.Fatalf("got type %d, want %d", typ, want)
		}
		if !bytes.Equal(payload, samples[want].Marshal()) {
			t.Fatalf("type %d payload mismatch", want)
		}
	}
	if _, _, err := ReadFrame(r); err != io.EOF {
		t.Fatalf("want io.EOF at stream end, got %v", err)
	}

	// Buffer path must consume the identical byte stream.
	rest := stream
	for _, want := range order {
		typ, payload, n, err := DecodeFrame(rest)
		if err != nil {
			t.Fatal(err)
		}
		if typ != want || !bytes.Equal(payload, samples[want].Marshal()) {
			t.Fatalf("DecodeFrame type %d mismatch", want)
		}
		rest = rest[n:]
	}
	if len(rest) != 0 {
		t.Fatalf("%d undecoded bytes", len(rest))
	}

	// Every strict prefix of a frame is "incomplete", never "corrupt".
	one := stream[:5+len(samples[MsgHello].Marshal())]
	for cut := 0; cut < len(one); cut++ {
		if _, _, _, err := DecodeFrame(one[:cut]); err != io.ErrUnexpectedEOF {
			t.Fatalf("prefix %d: want io.ErrUnexpectedEOF, got %v", cut, err)
		}
	}
}

func TestFrameLengthGuards(t *testing.T) {
	// Zero-length frame (no type byte) is invalid.
	if _, _, _, err := DecodeFrame([]byte{0, 0, 0, 0}); err == nil || err == io.ErrUnexpectedEOF {
		t.Fatalf("zero-length frame: got %v", err)
	}
	// A length prefix above MaxFrame is rejected before allocation.
	huge := []byte{0xff, 0xff, 0xff, 0xff}
	if _, _, _, err := DecodeFrame(huge); err == nil || err == io.ErrUnexpectedEOF {
		t.Fatalf("oversized frame: got %v", err)
	}
	if _, _, err := ReadFrame(bytes.NewReader(huge)); err == nil {
		t.Fatal("ReadFrame accepted oversized length prefix")
	}
	// WriteFrame refuses to produce an oversized frame.
	if err := WriteFrame(io.Discard, MsgDecide, make([]byte, MaxFrame)); err == nil {
		t.Fatal("WriteFrame accepted oversized payload")
	}
}

// TestReadFrameBoundsHandshake pins the pre-authentication guard: a
// header claiming 2 MiB, followed by nothing, is an invalid length and
// costs no allocation of the claimed size.
func TestReadFrameBoundsHandshake(t *testing.T) {
	hdr := []byte{0, 0x20, 0, 0} // 2 MiB
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := ReadFrame(bytes.NewReader(hdr))
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "invalid frame length") {
		t.Errorf("2 MiB handshake frame: got %v, want invalid frame length", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 64<<10 {
		t.Errorf("rejecting a 2 MiB header allocated %d bytes", grew)
	}
}

// TestDecodeRejectsHostileLengths pins the allocation guard: a tiny
// payload claiming a huge element count must fail cleanly instead of
// allocating gigabytes.
func TestDecodeRejectsHostileLengths(t *testing.T) {
	hostile := appendU32(nil, 0xffffffff) // "4 billion obs values" in 4 bytes
	var d Decide
	hdr := appendU64(appendU64(appendF64(appendU32(nil, 1), 0), 2), 3) // node, now, flow, span
	if err := d.Unmarshal(append(hdr, hostile...)); err == nil {
		t.Fatal("hostile obs count accepted")
	}
	var a Actions
	if err := a.Unmarshal(hostile); err == nil {
		t.Fatal("hostile actions count accepted")
	}
	var mp ModelPush
	if err := mp.Unmarshal(hostile); err == nil {
		t.Fatal("hostile payload length accepted")
	}
}

func TestDecideBatchShapeValidation(t *testing.T) {
	bad := DecideBatch{Node: 1, Now: 0, Width: 3, Rows: []float64{1, 2, 3, 4}}
	var out DecideBatch
	if err := out.Unmarshal(bad.Marshal()); err == nil {
		t.Fatal("rows not a multiple of width accepted")
	}
	badZero := DecideBatch{Node: 1, Width: 0, Rows: []float64{1}}
	if err := out.Unmarshal(badZero.Marshal()); err == nil {
		t.Fatal("zero width with rows accepted")
	}
}
