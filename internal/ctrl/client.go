package ctrl

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/rpc"
)

// Client speaks the control protocol to one endpoint: to a shard agent
// Status here and the commit phases through the RemoteRunner over it, to
// an announcer Wait. Control traffic is low-rate and the controller
// drives each shard's phases in order, so a single parked connection
// (redialed transparently after transport errors) suffices — unlike the
// data plane's pooled objstore.Client.
type Client struct {
	rpc *rpc.Client
}

// NewClient returns a client for the CNC1 endpoint at addr; nothing is
// dialed until the first call, and each dial is bounded by dialTimeout.
func NewClient(addr string, dialTimeout time.Duration) *Client {
	// No retry on a stale parked connection (see rpc.NewClient): Prepare
	// is not idempotent, and the controller's own retry policy decides
	// what a broken round trip means.
	return &Client{rpc: rpc.NewClient(addr, 1, dialTimeout, false)}
}

// ClientConfig configures DialAgent; it has no settings left.
type ClientConfig struct{}

// agentProbeTimeout bounds DialAgent's dial and its Status probe.
const agentProbeTimeout = 5 * time.Second

// DialAgent connects to an agent at addr and verifies reachability with
// a Status probe.
func DialAgent(addr string, _ ClientConfig) (*Client, error) {
	c := NewClient(addr, agentProbeTimeout)
	ctx, cancel := context.WithTimeout(context.Background(), agentProbeTimeout)
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
		return fmt.Errorf("ctrl: %s: %s", c.Addr(), payload)
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

// Wait long-polls the announce endpoint for job: the reply comes at
// once if the announcer's newest Seq is not after, otherwise at the next
// announcement, or with no news at the announcer's bound. A link that
// stays silent past that bound fails the call, as does a cancel of ctx.
func (c *Client) Wait(ctx context.Context, jobID string, after uint64) (*WaitReply, error) {
	ctx, cancel := context.WithTimeout(ctx, waitBound+waitGrace)
	defer cancel()
	var reply WaitReply
	if err := c.call(ctx, opWait, 0, &WaitArgs{JobID: jobID, After: after}, &reply); err != nil {
		return nil, err
	}
	return &reply, nil
}

// Close closes the connection. It does not wait for a call in flight.
func (c *Client) Close() error { return c.rpc.Close() }
