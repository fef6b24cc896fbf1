package shard

import (
	"bytes"
	"fmt"
	"sync/atomic"
	"time"

	"skyloader/internal/exec"
	"skyloader/internal/shard/wire"
)

// Client is one coordinator-side connection to a shard agent.  Call sends
// one message (req, its frame as wire.Append built it: read, not kept) and
// blocks the worker until the reply arrives; a client carries one
// outstanding request at a time (the coordinator scatters by running one
// worker per shard).  Bytes reports the framed traffic so the coordinator can
// export bytes-on-the-wire without transports sharing counters.
type Client interface {
	Call(w exec.Worker, req []byte) (wire.Msg, error)
	Bytes() (sent, received int64)
	Close() error
}

// NetModel prices the in-process transport: a fixed per-message latency
// plus serialization time at BytesPerSec.  Zero fields cost nothing, so the
// zero NetModel degrades to an instantaneous network.
type NetModel struct {
	Latency     time.Duration
	BytesPerSec float64
}

// Cost returns the one-way transfer time of n framed bytes.
func (m NetModel) Cost(n int) time.Duration {
	d := m.Latency
	if m.BytesPerSec > 0 {
		d += time.Duration(float64(n) / m.BytesPerSec * float64(time.Second))
	}
	return d
}

// memClient is the in-process transport: messages cross as the real wire
// codec's bytes, which the agent decodes from its own copy as off a socket
// (so the DES simulation and the TCP path exercise the same bytes, and no
// memory is shared between coordinator and agent), the network is charged
// via worker sleeps, and a capacity-1 resource serializes the agent like a
// single-core remote node.
type memClient struct {
	agent  *Agent
	net    NetModel
	cpu    exec.Resource
	sent   atomic.Int64
	recv   atomic.Int64
	closed atomic.Bool
}

// NewMemClient connects a coordinator to an in-process agent on the shared
// scheduler.  Under DES the net model's sleeps advance virtual time, making
// 100-node topologies simulable; under realtime with TimeScale 0 they are
// no-ops and the transport is just a serialized function call.
func NewMemClient(sched exec.Scheduler, agent *Agent, net NetModel) Client {
	return &memClient{
		agent: agent,
		net:   net,
		cpu:   sched.NewResource(fmt.Sprintf("shard-agent-%p", agent), 1),
	}
}

// Call implements Client.
func (c *memClient) Call(w exec.Worker, req []byte) (wire.Msg, error) {
	if c.closed.Load() {
		return nil, fmt.Errorf("shard: client closed")
	}
	c.sent.Add(int64(len(req)))
	w.Sleep(c.net.Cost(len(req)))
	decoded, _, err := wire.ReadMsg(bytes.NewReader(req))
	if err != nil {
		return nil, err
	}
	c.cpu.Acquire(w, 1)
	reply := c.agent.Handle(w, decoded)
	c.cpu.Release(w, 1)
	resp := wire.Append(nil, reply)
	c.recv.Add(int64(len(resp)))
	w.Sleep(c.net.Cost(len(resp)))
	out, _, err := wire.Decode(resp)
	return out, err
}

// Bytes implements Client.
func (c *memClient) Bytes() (int64, int64) { return c.sent.Load(), c.recv.Load() }

// Close implements Client.
func (c *memClient) Close() error {
	c.closed.Store(true)
	return nil
}
