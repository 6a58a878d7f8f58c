package rpc

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/rpc/rpctest"
)

// The test protocol: a request is one line, the response echoes it
// with status 0 — or, for "status N", a bare status N.
func echoServer(t *testing.T, executed *atomic.Int64) *Server {
	t.Helper()
	srv, err := Listen("127.0.0.1:0", "echo", t.Logf, func(br *bufio.Reader, fw *FrameWriter) error {
		line, err := br.ReadString('\n')
		if err != nil {
			return err
		}
		if executed != nil {
			executed.Add(1)
		}
		if line == "status 7\n" {
			return WriteResponse(fw, 7, nil)
		}
		return WriteResponse(fw, 0, []byte(line))
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

func echo(ctx context.Context, c *Client, line string) (uint8, string, error) {
	status, payload, err := c.Do(ctx, 1<<20, func(fw *FrameWriter) error {
		_, err := io.WriteString(fw, line+"\n")
		return err
	})
	return status, string(payload), err
}

func ctxT(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func TestRoundTripAndPooling(t *testing.T) {
	srv := echoServer(t, nil)
	c := NewClient(srv.Addr(), 2, time.Second, false)
	defer c.Close()
	ctx := ctxT(t)
	for i := 0; i < 3; i++ {
		if status, got, err := echo(ctx, c, "hello"); err != nil || status != 0 || got != "hello\n" {
			t.Fatalf("echo = %d %q %v", status, got, err)
		}
	}
	// A non-zero status is the server's answer, not a transport error,
	// and keeps the connection.
	if status, _, err := echo(ctx, c, "status 7"); err != nil || status != 7 {
		t.Fatalf("status round trip = %d %v", status, err)
	}
	if n := len(c.idle); n != 1 {
		t.Fatalf("sequential calls parked %d connections, want 1 reused", n)
	}
}

// TestRetryIdleRule is the one rule the constructor argument selects:
// after every parked connection dies, a retryIdle client does not
// notice, and a plain client fails exactly one call with a typed read
// or write error, never re-sending the request.
func TestRetryIdleRule(t *testing.T) {
	ctx := ctxT(t)
	for _, retry := range []bool{true, false} {
		var executed atomic.Int64
		srv := echoServer(t, &executed)
		c := NewClient(srv.Addr(), 2, time.Second, retry)
		if _, _, err := echo(ctx, c, "warm"); err != nil {
			t.Fatal(err)
		}
		srv.CloseConns()
		_, got, err := echo(ctx, c, "again")
		if retry {
			if err != nil || got != "again\n" {
				t.Fatalf("retryIdle: call over a stale pool = %q, %v", got, err)
			}
		} else {
			var te *Error
			if !errors.As(err, &te) || te.Op == "dial" || te.Addr != srv.Addr() {
				t.Fatalf("no retry: call over a stale pool = %v, want a read/write *Error", err)
			}
			if n := executed.Load(); n != 1 {
				t.Fatalf("no retry: server executed %d requests, want only the warm-up", n)
			}
			if _, got, err := echo(ctx, c, "again"); err != nil || got != "again\n" {
				t.Fatalf("no retry: call after the failed one = %q, %v (should redial)", got, err)
			}
		}
		c.Close()
	}
}

func TestClientErrors(t *testing.T) {
	ctx := ctxT(t)
	srv := echoServer(t, nil)
	addr := srv.Addr()
	srv.Close()
	c := NewClient(addr, 1, time.Second, true)
	var te *Error
	if _, _, err := echo(ctx, c, "x"); !errors.As(err, &te) || te.Op != "dial" {
		t.Fatalf("dead address = %v, want dial *Error", err)
	}
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	if _, _, err := echo(canceled, c, "x"); !errors.Is(err, context.Canceled) || errors.As(err, &te) {
		t.Fatalf("done ctx = %v, want bare context.Canceled", err)
	}
	c.Close()
	if _, _, err := echo(ctx, c, "x"); !errors.Is(err, ErrClosed) {
		t.Fatalf("after Close = %v, want ErrClosed", err)
	}
}

// silentListener accepts connections and never answers.
func silentListener(t *testing.T) (addr string, release func()) {
	t.Helper()
	hold := make(chan struct{})
	srv, err := ListenConns("127.0.0.1:0", "silent", t.Logf, func(net.Conn) { <-hold })
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	var once atomic.Bool
	release = func() {
		if once.CompareAndSwap(false, true) {
			close(hold)
		}
	}
	t.Cleanup(release)
	return srv.Addr(), release
}

func TestCtxDeadlineBecomesConnDeadline(t *testing.T) {
	addr, _ := silentListener(t)
	c := NewClient(addr, 1, time.Second, true)
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, _, err := echo(ctx, c, "x")
	var te *Error
	if !errors.As(err, &te) || te.Op != "read" {
		t.Fatalf("silent peer = %v, want read *Error", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("deadline took %v to fire", d)
	}
}

// TestCtxCancelEndsTheCall: a cancel ends a call to a peer that never
// answers as a deadline would — promptly, with a read *Error — and the
// connection it was on is not parked.
func TestCtxCancelEndsTheCall(t *testing.T) {
	addr, _ := silentListener(t)
	c := NewClient(addr, 1, time.Second, false)
	defer c.Close()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := echo(ctx, c, "x")
		done <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the call reach its blocking read
	cancel()
	start := time.Now()
	var err error
	select {
	case err = <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("a cancelled call to a silent peer did not return")
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Errorf("the call returned %v after its cancel", d)
	}
	var te *Error
	if !errors.As(err, &te) || te.Op != "read" {
		t.Fatalf("cancelled call = %v, want read *Error", err)
	}
	if n := len(c.idle); n != 0 {
		t.Fatalf("a cancelled call parked its connection (%d idle)", n)
	}
}

// TestCancelAfterResponseKeepsTheCall: a cancel that comes once the
// response is in fails neither that call nor the next, whichever side of
// Do's return it lands on.
func TestCancelAfterResponseKeepsTheCall(t *testing.T) {
	srv := echoServer(t, nil)
	c := NewClient(srv.Addr(), 1, time.Second, false)
	defer c.Close()
	ctx, cancel := context.WithCancel(context.Background())
	if _, got, err := echo(ctx, c, "a"); err != nil || got != "a\n" {
		t.Fatalf("echo = %q, %v", got, err)
	}
	cancel()
	if _, got, err := echo(ctxT(t), c, "b"); err != nil || got != "b\n" {
		t.Fatalf("the call after a late cancel = %q, %v", got, err)
	}
	// Cancels racing the response: a call either fails as a cancelled
	// one does or returns its own answer, and never leaves the client a
	// connection that fails the call after it.
	for i := 0; i < 200; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		go cancel()
		_, got, err := echo(ctx, c, "c")
		var te *Error
		if err != nil && !errors.As(err, &te) && !errors.Is(err, context.Canceled) {
			t.Fatalf("racing cancel %d: %v, want a transport *Error or context.Canceled", i, err)
		}
		if err == nil && got != "c\n" {
			t.Fatalf("racing cancel %d answered %q", i, got)
		}
		if _, got, err := echo(ctxT(t), c, "d"); err != nil || got != "d\n" {
			t.Fatalf("the call after racing cancel %d = %q, %v", i, got, err)
		}
	}
}

func TestClientCloseDoesNotWaitForInFlight(t *testing.T) {
	addr, release := silentListener(t)
	c := NewClient(addr, 1, time.Second, false)
	done := make(chan error, 1)
	go func() {
		_, _, err := echo(context.Background(), c, "x")
		done <- err
	}()
	// Let the call reach its blocking read; Close must not queue behind it.
	time.Sleep(50 * time.Millisecond)
	closed := make(chan struct{})
	go func() {
		c.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(2 * time.Second):
		t.Fatal("Close blocked behind an in-flight call")
	}
	release() // the server side hangs up; the call fails and its conn is discarded
	if err := <-done; err == nil {
		t.Fatal("in-flight call succeeded against a silent peer")
	}
	if n := len(c.idle); n != 0 {
		t.Fatalf("closed client parked %d connections", n)
	}
}

// TestServerCloseWithSilentConn: a connection that was accepted and
// never sent a byte must not hold Close — the server tracks it from
// accept.
func TestServerCloseWithSilentConn(t *testing.T) {
	srv := echoServer(t, nil)
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	time.Sleep(50 * time.Millisecond) // let the accept loop pick it up
	start := time.Now()
	srv.Close()
	if d := time.Since(start); d > time.Second {
		t.Fatalf("Close took %v with a silent connection open", d)
	}
	// The peer sees the close.
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	var ne net.Error
	if _, err := conn.Read(make([]byte, 1)); err == nil || (errors.As(err, &ne) && ne.Timeout()) {
		t.Fatalf("server Close left the silent connection open (read: %v)", err)
	}
}

func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

func TestReadBodyCommitsMemoryAsBytesArrive(t *testing.T) {
	// A 1 GiB claim backed by nothing, then by 3 MiB: the cost follows
	// the bytes that arrived, not the claim.
	for _, arrived := range []int{0, 3 << 20} {
		var err error
		peer := bytes.NewReader(make([]byte, arrived))
		grew := allocatedBy(func() { _, err = ReadBody(peer, 1<<30) })
		if err == nil {
			t.Fatalf("%d of 1 GiB arrived: ReadBody succeeded", arrived)
		}
		if limit := uint64(3*arrived + 1<<20 + 64<<10); grew > limit {
			t.Fatalf("%d of 1 GiB arrived: allocated %d bytes (limit %d)", arrived, grew, limit)
		}
	}
	// Bodies above the first chunk still come back whole.
	want := bytes.Repeat([]byte("0123456789abcdef"), 5<<16) // 5 MiB
	got, err := ReadBody(bytes.NewReader(want), len(want))
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("5 MiB body: err %v, equal %v", err, bytes.Equal(got, want))
	}
	// A chunk-sized body is one allocation of exactly its size.
	if got, _ := ReadBody(bytes.NewReader(want), 80<<10); len(got) != 80<<10 || cap(got) != 80<<10 {
		t.Fatalf("80 KiB body: len %d cap %d", len(got), cap(got))
	}
	if got, err := ReadBody(strings.NewReader(""), 0); got != nil || err != nil {
		t.Fatalf("empty body = %v, %v", got, err)
	}
}

func TestReadResponseRefusesOverLimitBeforeAllocating(t *testing.T) {
	frame := []byte{0, 0xFF, 0xFF, 0xFF, 0x7F} // claims 2 GiB - 1
	var err error
	grew := allocatedBy(func() { _, _, err = ReadResponse(bytes.NewReader(frame), 1<<30) })
	if err == nil || grew > 64<<10 {
		t.Fatalf("over-limit response: err %v, allocated %d", err, grew)
	}
}

func FuzzResponseFrame(f *testing.F) {
	// Every protocol's response fixtures are this decoder's frames.
	for _, seed := range rpctest.Seeds(f, "../objstore/testdata/*_response.bin", "../ctrl/testdata/*_re*.bin", "../serve/testdata/*_response.bin") {
		f.Add(seed)
	}
	f.Add([]byte{0, 0, 0, 0, 4}) // a header claiming the whole limit, and nothing after it
	f.Fuzz(func(t *testing.T, data []byte) {
		rpctest.FuzzDecoder(t, data, func(r io.Reader) (func(io.Writer) error, error) {
			status, payload, err := ReadResponse(r, 1<<26)
			return func(w io.Writer) error { return WriteResponse(w, status, payload) }, err
		})
	})
}
