package objstore

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/rpc"
)

// Client is a Store backed by a remote Server over TCP. It sits on a
// pooled rpc.Client so the checkpoint writer can pipeline concurrent
// chunk uploads; broken connections are redialed transparently.
type Client struct {
	rpc *rpc.Client
}

// ClientConfig configures Dial.
type ClientConfig struct {
	// PoolSize caps pooled idle connections; zero means 4.
	PoolSize int
}

// dialTimeout bounds connection establishment and Dial's probe.
const dialTimeout = 5 * time.Second

// Dial connects to a Server at addr and verifies reachability with a
// List probe.
func Dial(addr string, cfg ClientConfig) (*Client, error) {
	if cfg.PoolSize <= 0 {
		cfg.PoolSize = 4
	}
	// Every CNR1 op is idempotent, so a failure on a parked connection
	// is retried once on a fresh dial (see rpc.NewClient): "stale pool
	// after a network blip" becomes a non-event instead of a spurious
	// ErrStoreUnavailable.
	cl := &Client{rpc: rpc.NewClient(addr, cfg.PoolSize, dialTimeout, true)}
	// Probe, bounded by the dial timeout so an accepting-but-unresponsive
	// endpoint cannot hang Dial forever.
	ctx, cancel := context.WithTimeout(context.Background(), dialTimeout)
	defer cancel()
	if _, err := cl.List(ctx, "\x00probe\x00"); err != nil {
		return nil, fmt.Errorf("objstore: dial probe: %w", err)
	}
	return cl, nil
}

// roundTrip sends one request and reads its response. Transport
// failures (*rpc.Error: dial and connection IO) come back as
// ErrStoreUnavailable; server-reported statuses never do, so a healthy
// store returning ErrNotFound or a data error is never misread as
// "store down".
func (cl *Client) roundTrip(ctx context.Context, req *request) (uint8, []byte, error) {
	status, payload, err := cl.rpc.Do(ctx, maxValueLen, func(fw *rpc.FrameWriter) error {
		return writeRequest(fw, req)
	})
	var te *rpc.Error
	switch {
	case errors.As(err, &te):
		return 0, nil, fmt.Errorf("%w: %v", ErrStoreUnavailable, te)
	case errors.Is(err, rpc.ErrClosed):
		return 0, nil, ErrClosed
	}
	return status, payload, err
}

func statusErr(status uint8, payload []byte) error {
	switch status {
	case statusOK:
		return nil
	case statusNotFound:
		return ErrNotFound
	default:
		return fmt.Errorf("objstore: server error: %s", payload)
	}
}

// Put implements Store.
func (cl *Client) Put(ctx context.Context, key string, value []byte) error {
	status, payload, err := cl.roundTrip(ctx, &request{op: opPut, key: key, value: value})
	if err != nil {
		return err
	}
	return statusErr(status, payload)
}

// Get implements Store.
func (cl *Client) Get(ctx context.Context, key string) ([]byte, error) {
	status, payload, err := cl.roundTrip(ctx, &request{op: opGet, key: key})
	if err != nil {
		return nil, err
	}
	if err := statusErr(status, payload); err != nil {
		return nil, err
	}
	return payload, nil
}

// Delete implements Store.
func (cl *Client) Delete(ctx context.Context, key string) error {
	status, payload, err := cl.roundTrip(ctx, &request{op: opDelete, key: key})
	if err != nil {
		return err
	}
	return statusErr(status, payload)
}

// List implements Store.
func (cl *Client) List(ctx context.Context, prefix string) ([]string, error) {
	status, payload, err := cl.roundTrip(ctx, &request{op: opList, key: prefix})
	if err != nil {
		return nil, err
	}
	if err := statusErr(status, payload); err != nil {
		return nil, err
	}
	if len(payload) == 0 {
		return nil, nil
	}
	return strings.Split(string(payload), "\n"), nil
}

// Stat implements Store.
func (cl *Client) Stat(ctx context.Context, key string) (int64, error) {
	status, payload, err := cl.roundTrip(ctx, &request{op: opStat, key: key})
	if err != nil {
		return 0, err
	}
	if err := statusErr(status, payload); err != nil {
		return 0, err
	}
	if len(payload) != 8 {
		return 0, fmt.Errorf("objstore: malformed stat response: %d bytes", len(payload))
	}
	return int64(binary.LittleEndian.Uint64(payload)), nil
}

// Close closes all pooled connections.
func (cl *Client) Close() error { return cl.rpc.Close() }
