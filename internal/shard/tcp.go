package shard

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"skyloader/internal/exec"
	"skyloader/internal/shard/wire"
)

// AgentServer exposes one agent over TCP: each accepted connection carries
// a sequence of framed requests answered in order.  Handlers run through the
// scheduler's InlineRunner so agent work enters the same resource
// discipline as everything else (which also means AgentServer requires the
// realtime engine — DES topologies use the in-process transport instead).
type AgentServer struct {
	agent  *Agent
	inline exec.InlineRunner
	ln     net.Listener

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// ServeAgent starts serving the agent on addr (host:port; port 0 picks a
// free one).  The scheduler must implement exec.InlineRunner.
func ServeAgent(agent *Agent, sched exec.Scheduler, addr string) (*AgentServer, error) {
	inline, ok := sched.(exec.InlineRunner)
	if !ok {
		return nil, fmt.Errorf("shard: scheduler %T cannot run inline workers; TCP agents need the realtime engine", sched)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("shard: listen %s: %w", addr, err)
	}
	s := &AgentServer{agent: agent, inline: inline, ln: ln, conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the server's bound address.
func (s *AgentServer) Addr() net.Addr { return s.ln.Addr() }

// Agent returns the served agent.
func (s *AgentServer) Agent() *Agent { return s.agent }

func (s *AgentServer) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.handleConn(conn)
	}
}

func (s *AgentServer) handleConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	br := bufio.NewReader(conn)
	for {
		msg, _, err := wire.ReadMsg(br)
		if err != nil {
			return
		}
		var reply wire.Msg
		s.inline.RunInline("shard-agent-conn", func(w exec.Worker) {
			reply = s.agent.Handle(w, msg)
		})
		if _, err := conn.Write(wire.Append(nil, reply)); err != nil {
			return
		}
	}
}

// Close stops accepting, severs every open connection, and waits for the
// handler goroutines to drain.
func (s *AgentServer) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	err := s.ln.Close()
	s.wg.Wait()
	return err
}

// callTimeout bounds one Hello, Query or Stats round trip on a TCP client.
// An agent that accepts and never answers would otherwise block the read
// forever with the client mutex held, and every later query to that shard —
// and /healthz and /metrics, which probe it — would hang behind it.  Agents
// answer these in milliseconds; LoadTask calls, which legitimately run for
// seconds, carry no deadline.
const callTimeout = 5 * time.Second

// tcpClient is the coordinator side of one agent connection.  One request
// is outstanding at a time (the scatter path runs one worker per shard);
// a failed or timed-out call closes the connection and the next call
// re-dials, so a restarted agent is picked up transparently.
type tcpClient struct {
	addr    string
	timeout time.Duration // callTimeout, shorter only in tests
	mu      sync.Mutex
	conn    net.Conn
	br      *bufio.Reader
	sent    atomic.Int64
	recv    atomic.Int64
	shut    atomic.Bool
}

// DialShard connects to an agent server.  The initial dial is eager so
// configuration errors surface immediately; later reconnects are lazy.
func DialShard(addr string) (Client, error) { return dialShard(addr, callTimeout) }

func dialShard(addr string, timeout time.Duration) (Client, error) {
	c := &tcpClient{addr: addr, timeout: timeout}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.ensureConn(); err != nil {
		return nil, err
	}
	return c, nil
}

func (c *tcpClient) ensureConn() error {
	if c.conn != nil {
		return nil
	}
	conn, err := net.Dial("tcp", c.addr)
	if err != nil {
		return fmt.Errorf("shard: dial %s: %w", c.addr, err)
	}
	c.conn = conn
	c.br = bufio.NewReader(conn)
	return nil
}

func (c *tcpClient) dropConn() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
		c.br = nil
	}
}

// Call implements Client.  The worker is unused for pacing — TCP transport
// runs under the realtime engine where network time is real time.
func (c *tcpClient) Call(_ exec.Worker, req []byte) (wire.Msg, error) {
	if c.shut.Load() {
		return nil, errors.New("shard: client closed")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.ensureConn(); err != nil {
		return nil, err
	}
	var deadline time.Time // zero clears the previous call's
	if wire.TypeOf(req) != wire.TypeLoadTask {
		deadline = time.Now().Add(c.timeout)
	}
	if err := c.conn.SetDeadline(deadline); err != nil {
		c.dropConn()
		return nil, fmt.Errorf("shard: set deadline on %s: %w", c.addr, err)
	}
	n, err := c.conn.Write(req)
	c.sent.Add(int64(n))
	if err != nil {
		c.dropConn()
		return nil, fmt.Errorf("shard: write to %s: %w", c.addr, err)
	}
	reply, rn, err := wire.ReadMsg(c.br)
	c.recv.Add(int64(rn))
	if err != nil {
		c.dropConn()
		return nil, fmt.Errorf("shard: read from %s: %w", c.addr, err)
	}
	return reply, nil
}

// Bytes implements Client.
func (c *tcpClient) Bytes() (int64, int64) { return c.sent.Load(), c.recv.Load() }

// Close implements Client.
func (c *tcpClient) Close() error {
	c.shut.Store(true)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.dropConn()
	return nil
}
