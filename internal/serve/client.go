package serve

import (
	"context"
	"fmt"
	"time"

	"repro/internal/rpc"
	"repro/internal/wire"
)

// ClientConfig configures a lookup client.
type ClientConfig struct {
	// DialTimeout bounds connection establishment; zero means 5s.
	DialTimeout time.Duration
}

// Client issues embedding lookups against one serving replica over a
// single parked connection (rpc.Client, pool of one): a transport
// error drops the connection and the next call redials.
type Client struct {
	rpc *rpc.Client
}

// NewClient returns a client for the replica at addr. No connection is
// made until the first lookup.
func NewClient(addr string, cfg ClientConfig) *Client {
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 5 * time.Second
	}
	return &Client{rpc: rpc.NewClient(addr, 1, cfg.DialTimeout, false)}
}

// Addr returns the replica address this client targets.
func (c *Client) Addr() string { return c.rpc.Addr() }

// Lookup fetches the embedding vectors for a batch of indices from one
// table. Every vector in the response was read from the single
// committed checkpoint identified by the response's CkptID/Step.
// A replica that has not loaded a checkpoint yet returns an error
// wrapping ErrNotReady.
func (c *Client) Lookup(ctx context.Context, tableID uint32, indices []uint32) (*wire.LookupResponse, error) {
	body, err := wire.EncodeLookupRequest(&wire.LookupRequest{TableID: tableID, Indices: indices})
	if err != nil {
		return nil, err
	}
	status, payload, err := c.rpc.Do(ctx, maxLookupFrame, func(fw *rpc.FrameWriter) error {
		return writeLookupFrame(fw, body)
	})
	if err != nil {
		return nil, fmt.Errorf("serve: lookup: %w", err)
	}
	switch status {
	case lookupStatusOK:
		return wire.DecodeLookupResponse(payload)
	case lookupStatusNotReady:
		return nil, fmt.Errorf("serve: %s: %w", c.Addr(), ErrNotReady)
	default:
		return nil, fmt.Errorf("serve: %s: %s", c.Addr(), payload)
	}
}

// Close closes the connection, if any.
func (c *Client) Close() { c.rpc.Close() }
