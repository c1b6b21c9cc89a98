package agentnet

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// Backend is the policy side of an agent daemon: it turns observation
// rows into actions. agentnet owns the sockets and framing; the backend
// owns the model. internal/coord provides the real implementation
// (PolicyBackend); tests provide scripted ones.
//
// A Backend instance serves exactly one driver connection. Init is
// called once with the decoded Hello and must (re)build all decision
// state from it — in particular the per-node RNG streams derived from
// Hello.Seed — so that a reconnecting driver always starts from a
// well-defined state.
type Backend interface {
	// Init validates the handshake and returns the agent's half: its ID,
	// loaded-model hash, and the granted capability subset of h.WantCaps.
	Init(h *Hello) (HelloAck, error)
	// Decide returns one action for an observation row at node.
	Decide(node uint32, now float64, obs []float64) (int32, error)
	// DecideBatch fills actions (len(rows)/width entries, pre-sized by
	// the caller) for a same-node cohort. Only called if Init granted
	// CapBatch.
	DecideBatch(node uint32, now float64, width int, rows []float64, actions []int32) error
	// SetModel verifies and hot-swaps the serialized checkpoint. Only
	// called if Init granted CapModelPush.
	SetModel(hash string, payload []byte) error
}

// ServerConfig tunes a Server. Zero values get sane defaults.
type ServerConfig struct {
	// IdleTimeout is the per-connection read deadline. A driver that
	// goes silent longer than this (no decides, no pings) is presumed
	// dead and the session is dropped. Default 2 minutes.
	IdleTimeout time.Duration
	// ObserveDecide, if set, receives the server-side span durations of
	// every decision request: the cohort size (1 for Decide), serverNS
	// (frame-read-complete → response-encode-start, i.e. decode + queue +
	// inference), inferNS (policy inference inside it), and encodeNS
	// (response encode + socket write — invisible to the driver, which
	// accounts it as network time). cmd/agentd points this at its local
	// telemetry registry. Nil-checked on the hot path.
	ObserveDecide func(batch int, serverNS, inferNS, encodeNS int64)
	// Logf receives session lifecycle lines; nil silences them.
	Logf func(format string, args ...any)
}

// Server accepts driver connections on a listener and serves each with a
// fresh Backend. It is used both by cmd/agentd (one server per process)
// and by in-process tests/benchmarks (goroutine-hosted loopback servers,
// which is also how the benchmark harness's paper_socket workload runs).
type Server struct {
	NewBackend func() Backend
	Config     ServerConfig

	mu     sync.Mutex
	ln     net.Listener
	closed bool
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup
}

// NewServer returns a Server producing a fresh backend per connection.
func NewServer(newBackend func() Backend, cfg ServerConfig) *Server {
	if cfg.IdleTimeout <= 0 {
		cfg.IdleTimeout = 2 * time.Minute
	}
	return &Server{NewBackend: newBackend, Config: cfg, conns: map[net.Conn]struct{}{}}
}

// Serve accepts connections on ln until Close. It returns nil after
// Close, or the first accept error otherwise.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return errors.New("agentnet: server closed")
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return fmt.Errorf("agentnet: accept: %w", err)
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			s.serveConn(conn)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}()
	}
}

// Listen starts serving on addr in a background goroutine and returns
// the bound address (useful with ":0"). The caller must Close the
// server to release the port.
func (s *Server) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("agentnet: listen %s: %w", addr, err)
	}
	go func() {
		if err := s.Serve(ln); err != nil {
			s.logf("agentnet: serve: %v", err)
		}
	}()
	return ln.Addr(), nil
}

// Close stops accepting, severs live sessions, and waits for their
// goroutines to drain.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	s.wg.Wait()
	return err
}

func (s *Server) logf(format string, args ...any) {
	if s.Config.Logf != nil {
		s.Config.Logf(format, args...)
	}
}

// serveConn runs one session: handshake, then a strict request/response
// loop. Any protocol violation writes an Error frame and drops the
// connection — the client treats that as agent death and re-handshakes.
func (s *Server) serveConn(conn net.Conn) {
	defer conn.Close()
	remote := conn.RemoteAddr()
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true) // request/response over tiny frames; Nagle only adds RTT
	}

	fail := func(err error) {
		s.logf("agentnet: session %v: %v", remote, err)
		msg := ErrorMsg{Msg: err.Error()}
		conn.SetWriteDeadline(time.Now().Add(5 * time.Second))
		WriteFrame(conn, MsgError, msg.Marshal())
	}

	conn.SetReadDeadline(time.Now().Add(s.Config.IdleTimeout))
	typ, payload, err := ReadFrame(conn)
	if err != nil {
		s.logf("agentnet: session %v: handshake read: %v", remote, err)
		return
	}
	if typ != MsgHello {
		fail(fmt.Errorf("expected Hello, got message type %d", typ))
		return
	}
	var hello Hello
	if err := hello.Unmarshal(payload); err != nil {
		fail(err)
		return
	}
	if hello.Version != ProtoVersion {
		fail(fmt.Errorf("protocol version mismatch: driver %d, agent %d", hello.Version, ProtoVersion))
		return
	}
	backend := s.NewBackend()
	ack, err := backend.Init(&hello)
	if err != nil {
		fail(err)
		return
	}
	ack.Version = ProtoVersion
	if err := WriteFrame(conn, MsgHelloAck, ack.Marshal()); err != nil {
		s.logf("agentnet: session %v: handshake write: %v", remote, err)
		return
	}
	s.logf("agentnet: session %v: handshake ok (agent %s, nodes %d, caps %#x)",
		remote, ack.AgentID, len(hello.Nodes), ack.Caps)

	// The decision loop reuses its read buffer, request structs (whose
	// row/obs slices keep their capacity across requests via the
	// decode-into helpers), actions scratch, and framed-response buffer,
	// so a steady-state session performs zero allocations per decide —
	// matching the client side, where the whole loopback round trip is
	// asserted allocation-free.
	var (
		rbuf, wbuf []byte
		reqDecide  Decide
		reqBatch   DecideBatch
		actions    []int32
	)
	observe := s.Config.ObserveDecide
	for {
		conn.SetReadDeadline(time.Now().Add(s.Config.IdleTimeout))
		typ, payload, rb, err := readFrameInto(conn, rbuf)
		rbuf = rb
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				s.logf("agentnet: session %v: read: %v", remote, err)
			}
			return
		}
		tRead := time.Now() // frame fully read; ServerNS starts here
		switch typ {
		case MsgDecide:
			if err := reqDecide.Unmarshal(payload); err != nil {
				fail(err)
				return
			}
			tInfer := time.Now()
			a, err := backend.Decide(reqDecide.Node, reqDecide.Now, reqDecide.Obs)
			if err != nil {
				fail(err)
				return
			}
			tEnc := time.Now() // pre-encode; ServerNS ends here
			resp := Action{
				Action:   a,
				ServerNS: uint64(tEnc.Sub(tRead).Nanoseconds()),
				InferNS:  uint64(tEnc.Sub(tInfer).Nanoseconds()),
			}
			wbuf = resp.AppendTo(frameStart(wbuf))
			finishFrame(wbuf, MsgAction)
			conn.SetWriteDeadline(time.Now().Add(s.Config.IdleTimeout))
			if _, err := conn.Write(wbuf); err != nil {
				s.logf("agentnet: session %v: write: %v", remote, err)
				return
			}
			if observe != nil {
				observe(1, int64(resp.ServerNS), int64(resp.InferNS), time.Since(tEnc).Nanoseconds())
			}
		case MsgDecideBatch:
			if ack.Caps&CapBatch == 0 {
				fail(errors.New("DecideBatch without negotiated CapBatch"))
				return
			}
			if err := reqBatch.Unmarshal(payload); err != nil {
				fail(err)
				return
			}
			k := 0
			if reqBatch.Width > 0 {
				k = len(reqBatch.Rows) / int(reqBatch.Width)
			}
			if cap(actions) < k {
				actions = make([]int32, k)
			}
			actions = actions[:k]
			tInfer := time.Now()
			if err := backend.DecideBatch(reqBatch.Node, reqBatch.Now, int(reqBatch.Width), reqBatch.Rows, actions); err != nil {
				fail(err)
				return
			}
			tEnc := time.Now()
			resp := Actions{
				ServerNS: uint64(tEnc.Sub(tRead).Nanoseconds()),
				InferNS:  uint64(tEnc.Sub(tInfer).Nanoseconds()),
				Actions:  actions,
			}
			wbuf = resp.AppendTo(frameStart(wbuf))
			finishFrame(wbuf, MsgActions)
			conn.SetWriteDeadline(time.Now().Add(s.Config.IdleTimeout))
			if _, err := conn.Write(wbuf); err != nil {
				s.logf("agentnet: session %v: write: %v", remote, err)
				return
			}
			if observe != nil {
				observe(k, int64(resp.ServerNS), int64(resp.InferNS), time.Since(tEnc).Nanoseconds())
			}
		case MsgModelPush:
			if ack.Caps&CapModelPush == 0 {
				fail(errors.New("ModelPush without negotiated CapModelPush"))
				return
			}
			var req ModelPush
			if err := req.Unmarshal(payload); err != nil {
				fail(err)
				return
			}
			// A bad checkpoint is a per-request failure, not a session
			// failure: the driver learns why via the nack and keeps the
			// connection (and the agent's previous model) intact.
			ackMsg := ModelAck{Hash: req.Hash, OK: true}
			if err := backend.SetModel(req.Hash, req.Payload); err != nil {
				ackMsg.OK = false
				ackMsg.Err = err.Error()
			}
			conn.SetWriteDeadline(time.Now().Add(s.Config.IdleTimeout))
			if err := WriteFrame(conn, MsgModelAck, ackMsg.Marshal()); err != nil {
				s.logf("agentnet: session %v: write: %v", remote, err)
				return
			}
		case MsgPing:
			var req Ping
			if err := req.Unmarshal(payload); err != nil {
				fail(err)
				return
			}
			conn.SetWriteDeadline(time.Now().Add(s.Config.IdleTimeout))
			if err := WriteFrame(conn, MsgPong, (&Pong{Nonce: req.Nonce}).Marshal()); err != nil {
				s.logf("agentnet: session %v: write: %v", remote, err)
				return
			}
		default:
			fail(fmt.Errorf("unexpected message type %d", typ))
			return
		}
	}
}
