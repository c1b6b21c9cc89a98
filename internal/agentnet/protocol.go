// Package agentnet implements the wire protocol and control plane that
// connect the simulation driver to per-node agent daemons (cmd/agentd).
//
// The paper's premise is that coordination agents are *distributed*: each
// network node runs its own policy and decides locally. In-process
// coordinators (internal/coord) model that inside one address space; this
// package makes the boundary real. The driver ships observation rows to
// agent processes over TCP and gets sampled actions back, so the
// Coordinator seam of internal/simnet becomes a genuine process boundary
// while the event loop stays deterministic.
//
// Everything here is stdlib-only: frames are length-prefixed binary
// (4-byte big-endian payload length, 1 type byte, payload), numbers are
// fixed-width big-endian, float64 travels as math.Float64bits. The
// package is deliberately policy-agnostic — it moves bytes and enforces
// the handshake/liveness rules; internal/coord supplies the Backend that
// turns observations into actions.
package agentnet

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// ProtoVersion is the wire protocol version. Both sides send it in the
// handshake and refuse mismatches, so a stale agentd binary fails loudly
// at connect time instead of mis-decoding frames mid-run.
//
// Version history:
//
//	1: initial protocol
//	2: Decide/DecideBatch carry a trace context (flow + span IDs);
//	   Action/Actions piggyback server-side span durations (ServerNS,
//	   InferNS) so the driver can decompose each decision round trip
const ProtoVersion uint16 = 2

// MaxFrame bounds a frame payload (type byte + body). Model pushes carry
// whole checkpoints, so the cap is generous; everything else is tiny.
// A length prefix above this is treated as a protocol error, which stops
// a corrupt or hostile peer from making us allocate gigabytes.
const MaxFrame = 64 << 20

// maxHandshakeFrame bounds the frames ReadFrame accepts. Its callers
// read the handshake, before the peer is known, where a Hello is
// 64 + 4·|nodes| + |hash| bytes; session frames go through readFrameInto
// under MaxFrame.
const maxHandshakeFrame = 1 << 20

// Message type bytes. The value space is shared by both directions; each
// request type has a fixed response type (Decide→Action, Ping→Pong, ...).
const (
	MsgHello byte = iota + 1
	MsgHelloAck
	MsgDecide
	MsgAction
	MsgDecideBatch
	MsgActions
	MsgModelPush
	MsgModelAck
	MsgPing
	MsgPong
	MsgError
)

// Capability bits negotiated in the handshake. The driver requests a set
// in Hello; the agent grants a subset in HelloAck. Only granted
// capabilities may be used on the connection — coord.Remote reports the
// intersection through simnet.CapsProvider so the engine never calls a
// path the agents cannot serve.
const (
	// CapBatch: the agent accepts DecideBatch frames (whole same-node
	// decision cohorts in one round trip).
	CapBatch uint32 = 1 << iota
	// CapModelPush: the agent accepts ModelPush frames and hot-swaps its
	// policy after checksum verification.
	CapModelPush
)

// WriteFrame writes one frame: uint32 big-endian length of (type byte +
// payload), then the type byte, then the payload.
func WriteFrame(w io.Writer, typ byte, payload []byte) error {
	if len(payload)+1 > MaxFrame {
		return fmt.Errorf("agentnet: frame type %d payload %d exceeds MaxFrame", typ, len(payload))
	}
	var hdr [5]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(payload)+1))
	hdr[4] = typ
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if len(payload) > 0 {
		if _, err := w.Write(payload); err != nil {
			return err
		}
	}
	return nil
}

// ReadFrame reads one handshake frame written by WriteFrame. It returns
// the type byte and the payload (a fresh slice owned by the caller). A
// length prefix above the handshake bound (1 MiB) is rejected before
// anything is allocated, so four unauthenticated bytes cannot make the
// reader reserve MaxFrame.
func ReadFrame(r io.Reader) (byte, []byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n < 1 || n > maxHandshakeFrame {
		return 0, nil, fmt.Errorf("agentnet: invalid frame length %d", n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return 0, nil, fmt.Errorf("agentnet: short frame: %w", err)
	}
	return body[0], body[1:], nil
}

// frameStart resets buf to a frame skeleton: a 5-byte header
// placeholder the message payload is appended after. finishFrame fills
// the header once the payload is in place; the frame then goes out in a
// single Write (one packet under TCP_NODELAY, where the header+payload
// pair WriteFrame emits could be two). The hot request/response loops
// build frames this way into reusable scratch buffers.
func frameStart(buf []byte) []byte {
	return append(buf[:0], 0, 0, 0, 0, 0)
}

// finishFrame fills the header of a frame built by frameStart.
func finishFrame(frame []byte, typ byte) {
	binary.BigEndian.PutUint32(frame[:4], uint32(len(frame)-4))
	frame[4] = typ
}

// readFrameInto reads one session frame (up to MaxFrame) into buf, growing it
// only when the frame outsizes its capacity. It returns the type byte,
// the payload (aliasing the buffer, valid until the next read into it),
// and the possibly-grown buffer for the caller to keep. This is the
// zero-allocation read path used by the client and server hot loops.
func readFrameInto(r io.Reader, buf []byte) (byte, []byte, []byte, error) {
	// The header is read into the scratch buffer, not a local array: a
	// stack [4]byte passed through the io.Reader interface escapes, and
	// that one hidden allocation per frame — on each side of the socket —
	// is exactly what this path exists to avoid.
	if cap(buf) < 4 {
		buf = make([]byte, 64)
	}
	hdr := buf[:4]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return 0, nil, buf, err
	}
	n := binary.BigEndian.Uint32(hdr)
	if n < 1 || n > MaxFrame {
		return 0, nil, buf, fmt.Errorf("agentnet: invalid frame length %d", n)
	}
	if uint32(cap(buf)) < n {
		buf = make([]byte, n)
	}
	body := buf[:n]
	if _, err := io.ReadFull(r, body); err != nil {
		return 0, nil, buf, fmt.Errorf("agentnet: short frame: %w", err)
	}
	return body[0], body[1:n], buf, nil
}

// DecodeFrame parses one frame from buf without consuming a reader: it
// returns the type byte, the payload (aliasing buf), and the total bytes
// consumed. io.ErrUnexpectedEOF means buf holds a prefix of a valid
// frame. This is the entry point the fuzzer drives.
func DecodeFrame(buf []byte) (typ byte, payload []byte, n int, err error) {
	if len(buf) < 4 {
		return 0, nil, 0, io.ErrUnexpectedEOF
	}
	ln := binary.BigEndian.Uint32(buf[:4])
	if ln < 1 || ln > MaxFrame {
		return 0, nil, 0, fmt.Errorf("agentnet: invalid frame length %d", ln)
	}
	if uint32(len(buf)-4) < ln {
		return 0, nil, 0, io.ErrUnexpectedEOF
	}
	body := buf[4 : 4+ln]
	return body[0], body[1:], 4 + int(ln), nil
}

// --- primitive append/read helpers -----------------------------------

func appendU16(b []byte, v uint16) []byte { return binary.BigEndian.AppendUint16(b, v) }
func appendU32(b []byte, v uint32) []byte { return binary.BigEndian.AppendUint32(b, v) }
func appendU64(b []byte, v uint64) []byte { return binary.BigEndian.AppendUint64(b, v) }
func appendF64(b []byte, v float64) []byte {
	return binary.BigEndian.AppendUint64(b, math.Float64bits(v))
}
func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}
func appendString(b []byte, s string) []byte {
	b = appendU32(b, uint32(len(s)))
	return append(b, s...)
}
func appendBytes(b, p []byte) []byte {
	b = appendU32(b, uint32(len(p)))
	return append(b, p...)
}
func appendF64s(b []byte, vs []float64) []byte {
	b = appendU32(b, uint32(len(vs)))
	for _, v := range vs {
		b = appendF64(b, v)
	}
	return b
}
func appendU32s(b []byte, vs []uint32) []byte {
	b = appendU32(b, uint32(len(vs)))
	for _, v := range vs {
		b = appendU32(b, v)
	}
	return b
}
func appendI32s(b []byte, vs []int32) []byte {
	b = appendU32(b, uint32(len(vs)))
	for _, v := range vs {
		b = appendU32(b, uint32(v))
	}
	return b
}

// dec is a cursor over a payload. The first decode error sticks; callers
// check err once at the end, which keeps the per-field code linear.
type dec struct {
	b   []byte
	off int
	err error
}

func (d *dec) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("agentnet: truncated %s at offset %d", what, d.off)
	}
}

func (d *dec) u8(what string) byte {
	if d.err != nil || d.off+1 > len(d.b) {
		d.fail(what)
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

func (d *dec) u16(what string) uint16 {
	if d.err != nil || d.off+2 > len(d.b) {
		d.fail(what)
		return 0
	}
	v := binary.BigEndian.Uint16(d.b[d.off:])
	d.off += 2
	return v
}

func (d *dec) u32(what string) uint32 {
	if d.err != nil || d.off+4 > len(d.b) {
		d.fail(what)
		return 0
	}
	v := binary.BigEndian.Uint32(d.b[d.off:])
	d.off += 4
	return v
}

func (d *dec) u64(what string) uint64 {
	if d.err != nil || d.off+8 > len(d.b) {
		d.fail(what)
		return 0
	}
	v := binary.BigEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v
}

func (d *dec) f64(what string) float64 { return math.Float64frombits(d.u64(what)) }

func (d *dec) boolean(what string) bool { return d.u8(what) != 0 }

// count reads a u32 length and sanity-checks it against the bytes that
// remain, assuming each element needs at least elemSize bytes. This is
// what keeps a fuzzer-supplied length of 2^31 from allocating 16 GiB.
func (d *dec) count(what string, elemSize int) int {
	n := d.u32(what)
	if d.err != nil {
		return 0
	}
	if int(n) > (len(d.b)-d.off)/elemSize {
		d.fail(what)
		return 0
	}
	return int(n)
}

func (d *dec) str(what string) string {
	n := d.count(what, 1)
	if d.err != nil {
		return ""
	}
	v := string(d.b[d.off : d.off+n])
	d.off += n
	return v
}

func (d *dec) bytes(what string) []byte {
	n := d.count(what, 1)
	if d.err != nil {
		return nil
	}
	v := make([]byte, n)
	copy(v, d.b[d.off:d.off+n])
	d.off += n
	return v
}

func (d *dec) f64s(what string) []float64 {
	n := d.count(what, 8)
	if d.err != nil {
		return nil
	}
	vs := make([]float64, n)
	for i := range vs {
		vs[i] = d.f64(what)
	}
	return vs
}

// f64sInto decodes a float64 vector into dst, reusing its capacity. The
// request structs in the client/server hot loops decode through this so
// a steady-state session performs no per-request allocations.
func (d *dec) f64sInto(dst []float64, what string) []float64 {
	n := d.count(what, 8)
	if d.err != nil {
		return dst[:0]
	}
	if dst == nil || cap(dst) < n {
		dst = make([]float64, n)
	}
	dst = dst[:n]
	for i := range dst {
		dst[i] = d.f64(what)
	}
	return dst
}

func (d *dec) u32s(what string) []uint32 {
	n := d.count(what, 4)
	if d.err != nil {
		return nil
	}
	vs := make([]uint32, n)
	for i := range vs {
		vs[i] = d.u32(what)
	}
	return vs
}

func (d *dec) i32s(what string) []int32 {
	n := d.count(what, 4)
	if d.err != nil {
		return nil
	}
	vs := make([]int32, n)
	for i := range vs {
		vs[i] = int32(d.u32(what))
	}
	return vs
}

// i32sInto is f64sInto for int32 vectors.
func (d *dec) i32sInto(dst []int32, what string) []int32 {
	n := d.count(what, 4)
	if d.err != nil {
		return dst[:0]
	}
	if dst == nil || cap(dst) < n {
		dst = make([]int32, n)
	}
	dst = dst[:n]
	for i := range dst {
		dst[i] = int32(d.u32(what))
	}
	return dst
}

// done returns the sticky decode error, also failing if trailing garbage
// follows the message — a length-prefixed protocol has no excuse for
// leftover bytes, and tolerating them would mask encoder bugs.
func (d *dec) done(what string) error {
	if d.err == nil && d.off != len(d.b) {
		d.err = fmt.Errorf("agentnet: %s has %d trailing bytes", what, len(d.b)-d.off)
	}
	return d.err
}

// --- messages ---------------------------------------------------------

// Hello opens a connection (driver → agent). It carries everything the
// agent needs to reconstruct the in-process decision state exactly: the
// run seed (per-node RNG streams derive from it), the sampling mode, the
// observation/action geometry, and the node IDs this agent serves.
type Hello struct {
	Version    uint16
	Seed       int64
	Stochastic bool
	ObsSize    uint32
	NumActions uint32
	Nodes      []uint32
	WantCaps   uint32
	// ModelHash is the checkpoint hash the driver expects the agent to
	// run. Empty means "whatever you have loaded".
	ModelHash string
}

func (m *Hello) Marshal() []byte {
	b := make([]byte, 0, 64+4*len(m.Nodes)+len(m.ModelHash))
	b = appendU16(b, m.Version)
	b = appendU64(b, uint64(m.Seed))
	b = appendBool(b, m.Stochastic)
	b = appendU32(b, m.ObsSize)
	b = appendU32(b, m.NumActions)
	b = appendU32s(b, m.Nodes)
	b = appendU32(b, m.WantCaps)
	b = appendString(b, m.ModelHash)
	return b
}

func (m *Hello) Unmarshal(p []byte) error {
	d := &dec{b: p}
	m.Version = d.u16("hello.version")
	m.Seed = int64(d.u64("hello.seed"))
	m.Stochastic = d.boolean("hello.stochastic")
	m.ObsSize = d.u32("hello.obs_size")
	m.NumActions = d.u32("hello.num_actions")
	m.Nodes = d.u32s("hello.nodes")
	m.WantCaps = d.u32("hello.want_caps")
	m.ModelHash = d.str("hello.model_hash")
	return d.done("hello")
}

// HelloAck completes the handshake (agent → driver).
type HelloAck struct {
	Version uint16
	// AgentID identifies the agent process (host:port plus pid suffix);
	// the pool registry keys liveness and kill-fault targeting on it.
	AgentID string
	// ModelHash is the checksum of the checkpoint the agent actually
	// loaded. The driver compares it against its own policy hash and
	// pushes the model when they differ (and CapModelPush was granted).
	ModelHash string
	// Caps is the granted subset of Hello.WantCaps.
	Caps uint32
}

func (m *HelloAck) Marshal() []byte {
	b := make([]byte, 0, 32+len(m.AgentID)+len(m.ModelHash))
	b = appendU16(b, m.Version)
	b = appendString(b, m.AgentID)
	b = appendString(b, m.ModelHash)
	b = appendU32(b, m.Caps)
	return b
}

func (m *HelloAck) Unmarshal(p []byte) error {
	d := &dec{b: p}
	m.Version = d.u16("hello_ack.version")
	m.AgentID = d.str("hello_ack.agent_id")
	m.ModelHash = d.str("hello_ack.model_hash")
	m.Caps = d.u32("hello_ack.caps")
	return d.done("hello_ack")
}

// Decide asks for one action (driver → agent): the observation row for a
// flow at node Node at simulation time Now. Flow and Span carry the
// driver's trace context so the agent-side work is attributable to a
// specific flow's decision segment; agents echo nothing back — the
// context exists so both halves of a distributed span share an identity.
type Decide struct {
	Node uint32
	Now  float64
	Flow uint64
	Span uint64
	Obs  []float64
}

// AppendTo appends the marshaled payload to b. The client marshals into
// a reusable scratch buffer through this, keeping the decide path
// allocation-free.
func (m *Decide) AppendTo(b []byte) []byte {
	b = appendU32(b, m.Node)
	b = appendF64(b, m.Now)
	b = appendU64(b, m.Flow)
	b = appendU64(b, m.Span)
	b = appendF64s(b, m.Obs)
	return b
}

func (m *Decide) Marshal() []byte {
	return m.AppendTo(make([]byte, 0, 32+8*len(m.Obs)))
}

func (m *Decide) Unmarshal(p []byte) error {
	d := &dec{b: p}
	m.Node = d.u32("decide.node")
	m.Now = d.f64("decide.now")
	m.Flow = d.u64("decide.flow")
	m.Span = d.u64("decide.span")
	m.Obs = d.f64sInto(m.Obs, "decide.obs")
	return d.done("decide")
}

// Action answers a Decide (agent → driver). ServerNS and InferNS are the
// piggybacked server-side span durations: ServerNS covers the agent from
// frame-read-complete to response-encode-start (decode + queue + infer),
// InferNS just the policy inference inside it. Response encode+write
// cannot time itself into its own payload, so it lands in the driver's
// network sub-span by construction.
type Action struct {
	Action   int32
	ServerNS uint64
	InferNS  uint64
}

func (m *Action) AppendTo(b []byte) []byte {
	b = appendU32(b, uint32(m.Action))
	b = appendU64(b, m.ServerNS)
	b = appendU64(b, m.InferNS)
	return b
}

func (m *Action) Marshal() []byte { return m.AppendTo(make([]byte, 0, 20)) }

func (m *Action) Unmarshal(p []byte) error {
	d := &dec{b: p}
	m.Action = int32(d.u32("action.action"))
	m.ServerNS = d.u64("action.server_ns")
	m.InferNS = d.u64("action.infer_ns")
	return d.done("action")
}

// DecideBatch ships a same-(node, time) decision cohort in one round
// trip: Rows holds len(Rows)/Width observation rows, row-major, exactly
// as coord.observeRows packs them.
type DecideBatch struct {
	Node uint32
	Now  float64
	// Span is the trace context for the whole cohort: the rows share one
	// round trip, so they share one span (flow identity stays driver-side
	// where the cohort membership is known).
	Span  uint64
	Width uint32
	Rows  []float64
}

func (m *DecideBatch) AppendTo(b []byte) []byte {
	b = appendU32(b, m.Node)
	b = appendF64(b, m.Now)
	b = appendU64(b, m.Span)
	b = appendU32(b, m.Width)
	b = appendF64s(b, m.Rows)
	return b
}

func (m *DecideBatch) Marshal() []byte {
	return m.AppendTo(make([]byte, 0, 32+8*len(m.Rows)))
}

func (m *DecideBatch) Unmarshal(p []byte) error {
	d := &dec{b: p}
	m.Node = d.u32("decide_batch.node")
	m.Now = d.f64("decide_batch.now")
	m.Span = d.u64("decide_batch.span")
	m.Width = d.u32("decide_batch.width")
	m.Rows = d.f64sInto(m.Rows, "decide_batch.rows")
	if d.err == nil && m.Width != 0 && len(m.Rows)%int(m.Width) != 0 {
		return fmt.Errorf("agentnet: decide_batch rows %d not a multiple of width %d", len(m.Rows), m.Width)
	}
	if d.err == nil && m.Width == 0 && len(m.Rows) != 0 {
		return fmt.Errorf("agentnet: decide_batch has rows but zero width")
	}
	return d.done("decide_batch")
}

// Actions answers a DecideBatch, one action per row in row order.
// ServerNS/InferNS have Action's semantics, covering the whole cohort.
type Actions struct {
	ServerNS uint64
	InferNS  uint64
	Actions  []int32
}

func (m *Actions) AppendTo(b []byte) []byte {
	b = appendU64(b, m.ServerNS)
	b = appendU64(b, m.InferNS)
	b = appendI32s(b, m.Actions)
	return b
}

func (m *Actions) Marshal() []byte {
	return m.AppendTo(make([]byte, 0, 24+4*len(m.Actions)))
}

func (m *Actions) Unmarshal(p []byte) error {
	d := &dec{b: p}
	m.ServerNS = d.u64("actions.server_ns")
	m.InferNS = d.u64("actions.infer_ns")
	m.Actions = d.i32sInto(m.Actions, "actions.actions")
	return d.done("actions")
}

// ModelPush ships a complete serialized checkpoint (driver → agent). The
// agent must verify that Payload hashes to Hash before deserializing or
// persisting anything (nn.LoadVerified / nn.WriteFileVerified).
type ModelPush struct {
	Hash    string
	Payload []byte
}

func (m *ModelPush) Marshal() []byte {
	b := make([]byte, 0, 8+len(m.Hash)+len(m.Payload))
	b = appendString(b, m.Hash)
	b = appendBytes(b, m.Payload)
	return b
}

func (m *ModelPush) Unmarshal(p []byte) error {
	d := &dec{b: p}
	m.Hash = d.str("model_push.hash")
	m.Payload = d.bytes("model_push.payload")
	return d.done("model_push")
}

// ModelAck answers a ModelPush. OK false carries the rejection reason
// (hash mismatch, malformed checkpoint, geometry mismatch).
type ModelAck struct {
	Hash string
	OK   bool
	Err  string
}

func (m *ModelAck) Marshal() []byte {
	b := make([]byte, 0, 16+len(m.Hash)+len(m.Err))
	b = appendString(b, m.Hash)
	b = appendBool(b, m.OK)
	b = appendString(b, m.Err)
	return b
}

func (m *ModelAck) Unmarshal(p []byte) error {
	d := &dec{b: p}
	m.Hash = d.str("model_ack.hash")
	m.OK = d.boolean("model_ack.ok")
	m.Err = d.str("model_ack.err")
	return d.done("model_ack")
}

// Ping is the liveness probe; Pong must echo the nonce.
type Ping struct {
	Nonce uint64
}

func (m *Ping) Marshal() []byte { return appendU64(nil, m.Nonce) }

func (m *Ping) Unmarshal(p []byte) error {
	d := &dec{b: p}
	m.Nonce = d.u64("ping.nonce")
	return d.done("ping")
}

// Pong answers a Ping.
type Pong struct {
	Nonce uint64
}

func (m *Pong) Marshal() []byte { return appendU64(nil, m.Nonce) }

func (m *Pong) Unmarshal(p []byte) error {
	d := &dec{b: p}
	m.Nonce = d.u64("pong.nonce")
	return d.done("pong")
}

// ErrorMsg is a fatal in-band error; the sender closes the connection
// after writing it.
type ErrorMsg struct {
	Msg string
}

func (m *ErrorMsg) Marshal() []byte { return appendString(nil, m.Msg) }

func (m *ErrorMsg) Unmarshal(p []byte) error {
	d := &dec{b: p}
	m.Msg = d.str("error.msg")
	return d.done("error")
}
