package rpc

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
)

// Server is a TCP listener with one goroutine per accepted connection.
// It tracks every connection from the moment it is accepted, so Close
// can always unblock a handler — including one still waiting for the
// peer's first byte.
type Server struct {
	name  string
	ln    net.Listener
	logf  func(format string, args ...any)
	serve func(*Server, net.Conn)

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// ListenConns binds addr (e.g. "127.0.0.1:0") and runs serve on its
// own goroutine for each accepted connection; the connection is closed
// when serve returns. name prefixes log lines and errors; a nil logf
// discards diagnostics. It returns once the listener is bound.
func ListenConns(addr, name string, logf func(format string, args ...any), serve func(net.Conn)) (*Server, error) {
	return listen(addr, name, logf, func(_ *Server, conn net.Conn) { serve(conn) })
}

// Listen serves the request/response session all three protocols run:
// for each connection, one is called repeatedly to read one request
// from br and write its response to fw, and the response is flushed
// after every call — until then fw may hold the payload by reference,
// so one must not hand it a slice something else will write to. A
// non-nil error from one ends the connection; it is logged unless it is
// the peer hanging up between requests (io.EOF) or the server shutting
// down.
func Listen(addr, name string, logf func(format string, args ...any), one func(br *bufio.Reader, fw *FrameWriter) error) (*Server, error) {
	return listen(addr, name, logf, func(s *Server, conn net.Conn) {
		br := bufio.NewReaderSize(conn, readBufSize)
		fw := newFrameWriter(conn)
		for {
			if err := one(br, fw); err != nil {
				if !errors.Is(err, io.EOF) && !s.isClosed() {
					s.logf("%s: %v", s.name, err)
				}
				return
			}
			if fw.Flush() != nil {
				return
			}
		}
	})
}

func listen(addr, name string, logf func(format string, args ...any), serve func(*Server, net.Conn)) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("%s: listen: %w", name, err)
	}
	if logf == nil {
		logf = func(string, ...any) {}
	}
	s := &Server{name: name, ln: ln, logf: logf, serve: serve, conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the bound listener address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			if !s.isClosed() {
				s.logf("%s: accept: %v", s.name, err)
			}
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			s.serve(s, conn)
			conn.Close()
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}()
	}
}

func (s *Server) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// CloseConns closes every live connection without stopping the
// listener. Clients transparently redial; this is the fault-injection
// hook for exercising that path under load.
func (s *Server) CloseConns() {
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
}

// Close stops accepting, closes live connections, and waits for every
// connection goroutine to exit. Whatever the handlers serve (a store,
// an agent, a replica) is left untouched.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	err := s.ln.Close()
	s.CloseConns()
	s.wg.Wait()
	return err
}
