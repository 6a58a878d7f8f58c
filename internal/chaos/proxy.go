// Package chaos is the fault-injection harness for the checkpoint
// fleet: a programmable TCP shim (Proxy) that degrades any single link,
// a fleet composer (Fleet) that stands up stores + shard agents +
// controller with every link behind a shim, and a declarative scenario
// runner (Scenario/Runner) that executes timed fault campaigns while an
// invariant checker proves, after every step, that the commit protocol
// never left a restorable partial composite, that RestoreLatest lands
// on a complete checkpoint bit-identically, and that rejoin/failover
// converges with no checkpoint-ID gaps.
//
// Everything here reuses the production stack unmodified — real
// objstore servers and clients, real control-protocol agents, real
// lease register — so a scenario that passes is evidence about the
// system, not about a simulation of it.
package chaos

import (
	"errors"
	"io"
	"math/rand"
	"net"
	"sync"
	"time"

	"repro/internal/rpc"
)

// Direction selects which half of a proxied link a LinkConfig applies
// to, from the connecting client's point of view.
type Direction int

const (
	// Up shapes client -> server traffic (requests, uploads).
	Up Direction = iota
	// Down shapes server -> client traffic (responses, downloads).
	Down
)

func (d Direction) String() string {
	if d == Up {
		return "up"
	}
	return "down"
}

// LinkConfig is the programmable state of one direction of a link. The
// zero value is a transparent wire.
type LinkConfig struct {
	// Latency delays every chunk of forwarded bytes.
	Latency time.Duration
	// Jitter adds a uniform random delay in [0, Jitter) on top of
	// Latency per forwarded chunk.
	Jitter time.Duration
	// Bandwidth, if positive, caps the direction to this many bytes per
	// second, shared across every connection on the link (a link has one
	// pipe, however many TCP streams cross it).
	Bandwidth float64
	// DropProb, if positive, is the per-chunk probability that the
	// connection is torn down instead of forwarding — the TCP analogue
	// of packet loss that outlasts retransmission.
	DropProb float64
	// Stall, if true, freezes the direction: bytes are accepted from the
	// source but not forwarded until the stall is lifted or the
	// connection dies. Unlike Partition the TCP connection stays up —
	// the peer sees a healthy, silent wire and must save itself with
	// deadlines.
	Stall bool
}

// Proxy is a TCP shim fronting one listener of the fleet. Connections
// accepted on Addr are forwarded to the target, each direction shaped
// by its LinkConfig; all knobs are runtime-reconfigurable and take
// effect on in-flight connections at the next forwarded chunk.
type Proxy struct {
	name string
	logf func(format string, args ...any)
	srv  *rpc.Server

	mu          sync.Mutex
	target      string
	up, down    LinkConfig
	partitioned bool
	// nextFree are the per-direction token-bucket cursors for Bandwidth.
	nextFree [2]time.Time
	conns    map[net.Conn]net.Conn // client conn -> server conn
	rng      *rand.Rand
	closed   bool
}

// NewProxy listens on listenAddr (use "127.0.0.1:0") and forwards to
// target. name labels log lines; logf may be nil.
func NewProxy(name, listenAddr, target string, logf func(format string, args ...any)) (*Proxy, error) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	p := &Proxy{
		name:   name,
		logf:   logf,
		target: target,
		conns:  make(map[net.Conn]net.Conn),
		rng:    rand.New(rand.NewSource(rand.Int63())),
	}
	var err error
	if p.srv, err = rpc.ListenConns(listenAddr, "chaos: proxy "+name, logf, p.serve); err != nil {
		return nil, err
	}
	return p, nil
}

// Addr returns the shim's listen address — what clients dial.
func (p *Proxy) Addr() string { return p.srv.Addr() }

// SetTarget points the shim at a new backend address. Existing
// connections keep their original backend; new ones get the new target.
// This is how a restarted process (new ephemeral port) keeps its stable
// fleet-facing address.
func (p *Proxy) SetTarget(target string) {
	p.mu.Lock()
	p.target = target
	p.mu.Unlock()
	p.logf("chaos: %s: target -> %s", p.name, target)
}

// SetLink installs cfg as dir's shaping state, effective immediately.
func (p *Proxy) SetLink(dir Direction, cfg LinkConfig) {
	p.mu.Lock()
	if dir == Up {
		p.up = cfg
	} else {
		p.down = cfg
	}
	p.mu.Unlock()
	p.logf("chaos: %s: %s link = %+v", p.name, dir, cfg)
}

// Partition hard-partitions the link: every live connection is torn
// down and new ones are accepted and immediately closed (connection
// reset, not a silent blackhole — use Stall for that).
func (p *Proxy) Partition() {
	p.mu.Lock()
	p.partitioned = true
	p.closeConnsLocked()
	p.mu.Unlock()
	p.logf("chaos: %s: partitioned", p.name)
}

// Heal clears the partition and both directions' shaping, restoring a
// transparent wire.
func (p *Proxy) Heal() {
	p.mu.Lock()
	p.partitioned = false
	p.up, p.down = LinkConfig{}, LinkConfig{}
	p.mu.Unlock()
	p.logf("chaos: %s: healed", p.name)
}

// DropConns tears down every live connection once, without changing the
// link state — a transient blip that forces clients onto fresh dials.
func (p *Proxy) DropConns() {
	p.mu.Lock()
	p.closeConnsLocked()
	p.mu.Unlock()
	p.logf("chaos: %s: dropped live conns", p.name)
}

func (p *Proxy) closeConnsLocked() {
	for c, s := range p.conns {
		c.Close()
		s.Close()
	}
}

// Close shuts the shim down: it closes the listener and all
// connections and returns once every forwarding goroutine has exited,
// so nothing logs through logf afterwards (logf is often t.Logf).
func (p *Proxy) Close() error {
	p.mu.Lock()
	p.closed = true
	p.closeConnsLocked()
	p.mu.Unlock()
	return p.srv.Close()
}

// serve forwards one accepted connection until either direction ends;
// rpc.Server closes client when it returns.
func (p *Proxy) serve(client net.Conn) {
	p.mu.Lock()
	refuse, target := p.closed || p.partitioned, p.target
	p.mu.Unlock()
	if refuse {
		return
	}
	server, err := net.DialTimeout("tcp", target, 5*time.Second)
	if err != nil {
		p.logf("chaos: %s: dial %s: %v", p.name, target, err)
		return
	}
	defer server.Close()
	p.mu.Lock()
	if p.closed || p.partitioned {
		p.mu.Unlock()
		return
	}
	p.conns[client] = server
	p.mu.Unlock()

	// Either direction failing kills the pair: half-open proxied
	// connections would wedge the framed protocols behind them.
	downDone := make(chan struct{})
	go func() {
		defer close(downDone)
		p.pump(Down, server, client)
		client.Close()
		server.Close()
	}()
	p.pump(Up, client, server)
	client.Close()
	server.Close()
	<-downDone
	p.mu.Lock()
	delete(p.conns, client)
	p.mu.Unlock()
}

// chunkSize is the forwarding granularity: shaping decisions (latency,
// drop, stall, bandwidth pacing) apply per chunk, so even one large
// framed message feels a mid-transfer config change.
const chunkSize = 16 << 10

// pump copies src -> dst, applying dir's live LinkConfig per chunk.
func (p *Proxy) pump(dir Direction, src, dst net.Conn) {
	buf := make([]byte, chunkSize)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			if !p.shape(dir, n) {
				return
			}
			if _, werr := dst.Write(buf[:n]); werr != nil {
				return
			}
		}
		if err != nil {
			// net.ErrClosed is a teardown this proxy did itself (Close,
			// Partition, DropConns, or the other direction ending), not
			// news about the link.
			if err != io.EOF && !errors.Is(err, net.ErrClosed) {
				p.logf("chaos: %s: %s read: %v", p.name, dir, err)
			}
			return
		}
	}
}

// shape applies the current link state to a chunk of n bytes, blocking
// for injected delay. It returns false when the chunk must not be
// forwarded (drop decision or proxy shutdown).
func (p *Proxy) shape(dir Direction, n int) bool {
	for {
		p.mu.Lock()
		if p.closed || p.partitioned {
			p.mu.Unlock()
			return false
		}
		cfg := p.up
		if dir == Down {
			cfg = p.down
		}
		if cfg.Stall {
			// Poll: a stall has no duration of its own, it lasts until
			// reconfigured or the connection is torn down.
			p.mu.Unlock()
			time.Sleep(2 * time.Millisecond)
			continue
		}
		if cfg.DropProb > 0 && p.rng.Float64() < cfg.DropProb {
			p.mu.Unlock()
			return false
		}
		delay := cfg.Latency
		if cfg.Jitter > 0 {
			delay += time.Duration(p.rng.Int63n(int64(cfg.Jitter)))
		}
		if cfg.Bandwidth > 0 {
			// Shared token bucket (cf. objstore.Throttle): reserve this
			// chunk's transfer time on the link's cursor and wait out the
			// queue ahead of us.
			now := time.Now()
			cursor := p.nextFree[dir]
			if cursor.Before(now) {
				cursor = now
			}
			p.nextFree[dir] = cursor.Add(time.Duration(float64(n) / cfg.Bandwidth * float64(time.Second)))
			delay += cursor.Sub(now)
		}
		p.mu.Unlock()
		if delay > 0 {
			time.Sleep(delay)
		}
		return true
	}
}
