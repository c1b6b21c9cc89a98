package agentnet

import (
	"bytes"
	"testing"
)

// FuzzDecodeFrame drives the frame decoder plus every message decoder
// with arbitrary bytes. The seed corpus is the recorded wire encoding of
// each protocol message (handshake, decide, push, liveness), so the
// fuzzer starts from valid frames and mutates from there.
//
// Invariants: DecodeFrame never panics, never over-consumes, agrees with
// readFrameInto (the session reader behind every decide and model push)
// on the same bytes, and a successfully decoded message
// re-marshals to bytes that decode to the same message (the decoder
// accepts only canonical encodings up to nil-vs-empty slices).
func FuzzDecodeFrame(f *testing.F) {
	for typ, msg := range sampleMessages() {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, typ, msg.Marshal()); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	// A few hostile shapes: truncated header, zero length, huge length,
	// valid frame with trailing garbage.
	f.Add([]byte{0, 0})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3})
	f.Add([]byte{0, 0, 0, 2, MsgPing, 9, 9, 9})

	decoders := map[byte]func() message{
		MsgHello:       func() message { return new(Hello) },
		MsgHelloAck:    func() message { return new(HelloAck) },
		MsgDecide:      func() message { return new(Decide) },
		MsgAction:      func() message { return new(Action) },
		MsgDecideBatch: func() message { return new(DecideBatch) },
		MsgActions:     func() message { return new(Actions) },
		MsgModelPush:   func() message { return new(ModelPush) },
		MsgModelAck:    func() message { return new(ModelAck) },
		MsgPing:        func() message { return new(Ping) },
		MsgPong:        func() message { return new(Pong) },
		MsgError:       func() message { return new(ErrorMsg) },
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		typ, payload, n, err := DecodeFrame(data)
		rTyp, rPayload, _, rErr := readFrameInto(bytes.NewReader(data), nil)
		if err != nil {
			// The two decoders must agree on rejection; readFrameInto
			// sees a truncated buffer as an io error.
			if rErr == nil {
				t.Fatalf("DecodeFrame rejected (%v) but readFrameInto accepted", err)
			}
			return
		}
		if rErr != nil {
			t.Fatalf("DecodeFrame accepted but readFrameInto rejected: %v", rErr)
		}
		if typ != rTyp || !bytes.Equal(payload, rPayload) {
			t.Fatal("DecodeFrame and readFrameInto disagree on the same bytes")
		}
		if n < 5 || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		mk, known := decoders[typ]
		if !known {
			return
		}
		msg := mk()
		if err := msg.Unmarshal(payload); err != nil {
			return // malformed payload for this type: rejection is fine
		}
		// Canonicalization check: decode(marshal(decode(p))) == decode(p).
		re := msg.Marshal()
		again := mk()
		if err := again.Unmarshal(re); err != nil {
			t.Fatalf("re-marshalled %T does not decode: %v", msg, err)
		}
		if !equalMessage(msg, again) {
			t.Fatalf("%T not canonical:\n first %+v\nsecond %+v", msg, msg, again)
		}
	})
}
