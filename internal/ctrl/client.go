package ctrl

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/rpc"
)

// Client speaks the control protocol to one shard agent: Status here,
// the commit phases through the RemoteRunner over it. Control traffic is
// low-rate and the controller drives each shard's phases in order, so a
// single parked connection (redialed transparently after transport
// errors) suffices — unlike the data plane's pooled objstore.Client.
type Client struct {
	rpc *rpc.Client
}

// ClientConfig configures DialAgent.
type ClientConfig struct {
	// DialTimeout bounds connection establishment; zero means 5s.
	DialTimeout time.Duration
}

// DialAgent connects to an agent at addr and verifies reachability with
// a Status probe.
func DialAgent(addr string, cfg ClientConfig) (*Client, error) {
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 5 * time.Second
	}
	// No retry on a stale parked connection (see rpc.NewClient): Prepare
	// is not idempotent, and the controller's own retry policy decides
	// what a broken round trip means.
	c := &Client{rpc: rpc.NewClient(addr, 1, cfg.DialTimeout, false)}
	ctx, cancel := context.WithTimeout(context.Background(), cfg.DialTimeout)
	defer cancel()
	if _, err := c.Status(ctx); err != nil {
		return nil, fmt.Errorf("ctrl: dial probe %s: %w", addr, err)
	}
	return c, nil
}

// Addr returns the agent address this client dials.
func (c *Client) Addr() string { return c.rpc.Addr() }

// call performs one request/response round trip. Transport errors drop
// the connection so the next call redials; protocol-level failures
// (fenced, error status) keep it.
func (c *Client) call(ctx context.Context, op uint8, epoch uint64, args any, reply any) error {
	req := &request{op: op, epoch: epoch}
	if args != nil {
		var err error
		if req.body, err = json.Marshal(args); err != nil {
			return fmt.Errorf("ctrl: encode request: %w", err)
		}
	}
	status, payload, err := c.rpc.Do(ctx, maxBodyLen, func(fw *rpc.FrameWriter) error {
		return writeRequest(fw, req)
	})
	if err != nil {
		return fmt.Errorf("ctrl: %w", err)
	}
	switch status {
	case statusOK:
		if reply != nil && len(payload) > 0 {
			if err := json.Unmarshal(payload, reply); err != nil {
				return fmt.Errorf("ctrl: decode reply: %w", err)
			}
		}
		return nil
	case statusFenced:
		return fmt.Errorf("%w: agent %s: %s", ErrFenced, c.Addr(), payload)
	default:
		return fmt.Errorf("ctrl: agent %s: %s", c.Addr(), payload)
	}
}

// Status fetches the agent's discovery/monitoring report.
func (c *Client) Status(ctx context.Context) (*StatusReply, error) {
	var reply StatusReply
	if err := c.call(ctx, opStatus, 0, nil, &reply); err != nil {
		return nil, err
	}
	return &reply, nil
}

// Close closes the connection. It does not wait for a call in flight.
func (c *Client) Close() error { return c.rpc.Close() }
