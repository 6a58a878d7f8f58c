package rpc

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// ErrClosed is returned by Do on a closed Client.
var ErrClosed = errors.New("rpc: client closed")

// Error is a transport failure — the dial, the request write or the
// response read broke — as opposed to anything the server replied.
// Protocols classify on it (objstore maps it to ErrStoreUnavailable);
// a status the server reported is never wrapped in one.
type Error struct {
	Op   string // "dial", "write" or "read"
	Addr string
	Err  error
}

func (e *Error) Error() string { return fmt.Sprintf("%s %s: %v", e.Op, e.Addr, e.Err) }
func (e *Error) Unwrap() error { return e.Err }

// Client runs request/response round trips against one address over a
// pool of parked connections. Calls never queue for a connection: one
// that finds the pool empty dials, and connections beyond the pool size
// are closed when their call ends. Any transport error discards the
// connection it happened on, so the next call redials.
type Client struct {
	addr        string
	poolSize    int
	dialTimeout time.Duration
	retryIdle   bool

	mu     sync.Mutex
	idle   []*clientConn
	closed bool
}

type clientConn struct {
	c  net.Conn
	br *bufio.Reader
	fw *FrameWriter
	// expire puts the connection's deadline in the past, failing the
	// write or read in flight: what a cancel of the call's ctx runs.
	expire func()
}

// NewClient returns a client for addr that parks up to poolSize idle
// connections; nothing is dialed until the first Do.
//
// retryIdle selects what happens when a call fails on a connection
// taken from the pool: a parked connection may have been reset while
// idle (server restart, network blip), which says nothing about whether
// the peer is up now. With retryIdle the client drops every parked
// connection — they died in the same event — and runs the call once
// more on a fresh dial, turning a stale pool into a non-event. That
// re-sends the request, so it is only for protocols whose every op is
// idempotent: CNR1 sets it; CNC1 does not, because a Prepare that
// executed before its connection broke must not execute twice.
func NewClient(addr string, poolSize int, dialTimeout time.Duration, retryIdle bool) *Client {
	return &Client{addr: addr, poolSize: poolSize, dialTimeout: dialTimeout, retryIdle: retryIdle}
}

// Addr returns the address this client dials.
func (c *Client) Addr() string { return c.addr }

// Do performs one round trip: write assembles the request in the
// connection's FrameWriter (Do flushes it, so anything write passed by
// reference is free again when Do returns), and the response frame is
// read back as ReadResponse(max) would. The ctx deadline, if any,
// becomes the connection deadline and also bounds the dial, and a
// cancel of ctx ends the call as its deadline would. The error is ctx's
// if ctx is already done, ErrClosed after Close, and otherwise an
// *Error; under retryIdle, write may run twice — each run gathers the
// frame afresh on the connection it is given.
func (c *Client) Do(ctx context.Context, max int, write func(*FrameWriter) error) (status uint8, payload []byte, err error) {
	status, payload, pooled, err := c.do(ctx, max, write)
	if err != nil && pooled && c.retryIdle && ctx.Err() == nil {
		c.purgeIdle()
		status, payload, _, err = c.do(ctx, max, write)
	}
	return status, payload, err
}

// do runs one attempt and reports whether it used a parked connection.
func (c *Client) do(ctx context.Context, max int, write func(*FrameWriter) error) (status uint8, payload []byte, pooled bool, err error) {
	if err := ctx.Err(); err != nil {
		return 0, nil, false, err
	}
	cc, pooled, err := c.acquire(ctx)
	if err != nil {
		return 0, nil, false, err
	}
	dl, _ := ctx.Deadline() // the zero time clears a previous call's deadline
	_ = cc.c.SetDeadline(dl)
	stop := func() bool { return true } // a ctx that is never cancelled
	if ctx.Done() != nil {
		stop = context.AfterFunc(ctx, cc.expire)
	}
	op := "write"
	if err = write(cc.fw); err == nil {
		err = cc.fw.Flush()
	}
	if err == nil {
		op = "read"
		status, payload, err = ReadResponse(cc.br, max)
	}
	if err != nil {
		stop()
		cc.c.Close()
		return 0, nil, pooled, &Error{Op: op, Addr: c.addr, Err: err}
	}
	if !stop() {
		// The cancel came after the response: the call stands, but the
		// connection's deadline is (or is about to be) in the past.
		cc.c.Close()
		return status, payload, pooled, nil
	}
	c.release(cc)
	return status, payload, pooled, nil
}

func (c *Client) acquire(ctx context.Context) (cc *clientConn, pooled bool, err error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, false, ErrClosed
	}
	if n := len(c.idle); n > 0 {
		cc := c.idle[n-1]
		c.idle = c.idle[:n-1]
		c.mu.Unlock()
		return cc, true, nil
	}
	c.mu.Unlock()
	d := net.Dialer{Timeout: c.dialTimeout}
	conn, err := d.DialContext(ctx, "tcp", c.addr)
	if err != nil {
		return nil, false, &Error{Op: "dial", Addr: c.addr, Err: err}
	}
	return &clientConn{
		c:      conn,
		br:     bufio.NewReaderSize(conn, readBufSize),
		fw:     newFrameWriter(conn),
		expire: func() { _ = conn.SetDeadline(time.Unix(1, 0)) },
	}, false, nil
}

// release parks a healthy connection, or closes it if the pool is full
// or the client closed while the call was in flight.
func (c *Client) release(cc *clientConn) {
	c.mu.Lock()
	if c.closed || len(c.idle) >= c.poolSize {
		c.mu.Unlock()
		cc.c.Close()
		return
	}
	c.idle = append(c.idle, cc)
	c.mu.Unlock()
}

// purgeIdle closes every parked connection.
func (c *Client) purgeIdle() {
	c.mu.Lock()
	idle := c.idle
	c.idle = nil
	c.mu.Unlock()
	for _, cc := range idle {
		cc.c.Close()
	}
}

// Close closes the parked connections and fails later calls with
// ErrClosed. It does not wait for calls in flight; their connections
// are closed as they finish.
func (c *Client) Close() error {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	c.purgeIdle()
	return nil
}
