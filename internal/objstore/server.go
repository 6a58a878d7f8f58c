package objstore

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"log"
	"strings"

	"repro/internal/rpc"
)

// Server serves a Store over TCP. One goroutine per connection handles
// framed requests sequentially; the checkpoint writer opens multiple
// connections to pipeline chunk uploads. Addr, CloseConns (the
// fault-injection hook: clients transparently redial) and Close come
// from the embedded rpc.Server; Close does not close the backend.
type Server struct {
	*rpc.Server
	backend Store
}

// ServerConfig configures Serve.
type ServerConfig struct {
	// Logf receives diagnostic messages; nil discards them.
	Logf func(format string, args ...any)
}

// NewServer starts serving backend on the given listener address
// (e.g. "127.0.0.1:0"). It returns once the listener is bound.
func NewServer(addr string, backend Store, cfg ServerConfig) (*Server, error) {
	if backend == nil {
		return nil, fmt.Errorf("objstore: nil backend")
	}
	s := &Server{backend: backend}
	var err error
	if s.Server, err = rpc.Listen(addr, "objstore server", cfg.Logf, s.handle); err != nil {
		return nil, err
	}
	return s, nil
}

// handle reads one request, executes it against the backend and writes
// its response: the op's payload on success, statusNotFound for
// ErrNotFound, the error text otherwise.
func (s *Server) handle(br *bufio.Reader, w *rpc.FrameWriter) error {
	req, err := readRequest(br)
	if err != nil {
		return err
	}
	ctx := context.Background()
	var payload []byte
	switch req.op {
	case opPut:
		// req.value is this request's freshly decoded frame buffer
		// (readRequest allocates per request), so ownership can pass to
		// the backend — no copy-per-Put on the server receive path.
		err = PutOwned(ctx, s.backend, req.key, req.value)
	case opGet:
		if payload, err = s.backend.Get(ctx, req.key); err == nil {
			// The value is this call's alone (Store.Get): once the
			// response is flushed nothing refers to it, so it goes back to
			// the pool the backend took it from. Listen's own flush then
			// finds nothing left to send.
			if err = rpc.WriteResponse(w, statusOK, payload); err == nil {
				err = w.Flush()
			}
			rpc.Recycle(payload)
			return err
		}
	case opDelete:
		err = s.backend.Delete(ctx, req.key)
	case opList:
		var keys []string
		keys, err = s.backend.List(ctx, req.key)
		payload = []byte(strings.Join(keys, "\n"))
	case opStat:
		var size int64
		size, err = s.backend.Stat(ctx, req.key)
		payload = binary.LittleEndian.AppendUint64(nil, uint64(size))
	default:
		err = fmt.Errorf("unknown op %d", req.op)
	}
	switch {
	case err == nil:
		return rpc.WriteResponse(w, statusOK, payload)
	case errors.Is(err, ErrNotFound):
		return rpc.WriteResponse(w, statusNotFound, nil)
	default:
		return rpc.WriteResponse(w, statusError, []byte(err.Error()))
	}
}

// Logger returns a *log.Logger-compatible adapter. Handy for cmd/objstored.
func Logger(l *log.Logger) func(string, ...any) {
	return func(format string, args ...any) { l.Printf(format, args...) }
}
