package rpc

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// recordingConn is a net.Conn whose reads come from a byte stream, at
// most piece bytes per call (a socket hands over what has arrived, not
// what was asked for), and whose every Read is kept: where in the
// stream it started and the slice it was asked to fill.
type recordingConn struct {
	net.Conn // nil: any method not overridden panics
	stream   *bytes.Reader
	size     int
	piece    int
	reads    []recordedRead

	writeErr error
	wrote    bytes.Buffer
	closed   bool
}

type recordedRead struct {
	at  int
	dst []byte
}

func (c *recordingConn) Read(p []byte) (int, error) {
	at := c.size - c.stream.Len()
	n, err := c.stream.Read(p[:min(len(p), c.piece)])
	c.reads = append(c.reads, recordedRead{at: at, dst: p[:n]})
	return n, err
}

func (c *recordingConn) Write(p []byte) (int, error) {
	if c.writeErr != nil {
		return 0, c.writeErr
	}
	return c.wrote.Write(p)
}

func (c *recordingConn) Close() error                { c.closed = true; return nil }
func (c *recordingConn) SetDeadline(time.Time) error { return nil }

func randomBody(seed int64, n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// bufioFrame is the response frame as the parent commit put it on the
// wire: WriteResponse into a 64 KB bufio.Writer, flushed.
func bufioFrame(t *testing.T, status uint8, payload []byte) []byte {
	t.Helper()
	var wire bytes.Buffer
	bw := bufio.NewWriterSize(&wire, 64<<10)
	if err := WriteResponse(bw, status, payload); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	return wire.Bytes()
}

// TestBodyIsReadIntoItsOwnSlice: of a chunk-sized or a 1 MiB body, only
// what arrived in the connection reader's buffer behind the header is
// copied; every other byte is read by a call whose destination is the
// payload the caller gets back. When the socket delivers the body in
// pieces, a last piece shorter than the buffer passes through it too:
// under two buffers' worth in all, whatever the body's size.
func TestBodyIsReadIntoItsOwnSlice(t *testing.T) {
	for _, size := range []int{70 << 10, 1 << 20} {
		for _, piece := range []int{size + responseHeaderLen, 64 << 10} {
			body := randomBody(int64(size), size)
			frame := bufioFrame(t, 0, body)
			conn := &recordingConn{stream: bytes.NewReader(frame), size: len(frame), piece: piece}
			status, payload, err := ReadResponse(bufio.NewReaderSize(conn, readBufSize), 1<<26)
			if err != nil || status != 0 || !bytes.Equal(payload, body) {
				t.Fatalf("%d-byte body: status %d, err %v, equal %v", size, status, err, bytes.Equal(payload, body))
			}
			direct := 0
			for _, r := range conn.reads {
				off := r.at - responseHeaderLen
				if len(r.dst) > 0 && off >= 0 && &r.dst[0] == &payload[off] {
					direct += len(r.dst)
				}
			}
			limit := readBufSize
			if piece < size {
				limit = 2*readBufSize - 1
			}
			if copied := size - direct; copied > limit {
				t.Errorf("%d-byte body in %d-byte pieces: %d bytes went through the reader's %d-byte buffer, want at most %d",
					size, piece, copied, readBufSize, limit)
			}
			if most := 3 + size/piece; len(conn.reads) > most {
				t.Errorf("%d-byte body in %d-byte pieces took %d reads, want at most %d", size, piece, len(conn.reads), most)
			}
		}
	}
}

// wireBytes returns the first n bytes a raw TCP peer receives after
// sending request to addr.
func wireBytes(t *testing.T, addr, request string, n int) []byte {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := io.WriteString(conn, request); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, n)
	if _, err := io.ReadFull(conn, got); err != nil {
		t.Fatalf("%q: %v", request, err)
	}
	return got
}

// TestFramesOnTheWire: what a peer's socket receives from the frame
// writer is, byte for byte, what the bufio.Writer it replaced sent —
// for every protocol's golden response fixture, for a header with a
// chunk-sized or larger body behind it (gathered), and for frames that
// stay under the gather threshold (one copied write).
func TestFramesOnTheWire(t *testing.T) {
	type frame struct {
		status  uint8
		payload []byte
		want    []byte
	}
	frames := map[string]frame{}
	for _, pattern := range []string{"../objstore/testdata/*_response.bin", "../ctrl/testdata/*_re*.bin", "../serve/testdata/*_response.bin"} {
		paths, err := filepath.Glob(pattern)
		if err != nil || len(paths) == 0 {
			t.Fatalf("no fixtures match %s: %v", pattern, err)
		}
		for _, p := range paths {
			want, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			status, payload, err := ReadResponse(bytes.NewReader(want), 1<<26)
			if err != nil {
				continue // a request fixture the glob also matched
			}
			frames[p] = frame{status, payload, want}
		}
	}
	if len(frames) != 7 {
		t.Fatalf("decoded %d response fixtures, want the 7 of objstore, ctrl and serve", len(frames))
	}
	for _, size := range []int{0, 1, gatherMin - 1, gatherMin, 70 << 10, 1 << 20} {
		payload := randomBody(int64(size), size)
		frames[fmt.Sprintf("body-%d", size)] = frame{3, payload, bufioFrame(t, 3, payload)}
	}

	srv, err := Listen("127.0.0.1:0", "frames", t.Logf, func(br *bufio.Reader, fw *FrameWriter) error {
		name, err := br.ReadString('\n')
		if err != nil {
			return err
		}
		f := frames[name[:len(name)-1]]
		return WriteResponse(fw, f.status, f.payload)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for name, f := range frames {
		if got := wireBytes(t, srv.Addr(), name+"\n", len(f.want)); !bytes.Equal(got, f.want) {
			t.Errorf("%s: the wire carried %d bytes that differ from the bufio frame (first at %d)", name, len(got), firstDiff(got, f.want))
		}
	}
}

func firstDiff(a, b []byte) int {
	for i := range a {
		if i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	return len(a)
}

// TestFrameWriterPieces covers the shapes WriteResponse never produces:
// a frame that is one borrowed body and nothing else, several bodies
// with headers between them, and a header so long it was built in
// HeaderBuf yet crosses the gather threshold — the short piece
// after it must not land on top of it.
func TestFrameWriterPieces(t *testing.T) {
	big, big2 := randomBody(1, 2*gatherMin), randomBody(2, gatherMin)
	for name, pieces := range map[string][][]byte{
		"body-only":   {big},
		"empty":       {},
		"interleaved": {[]byte("h1"), big, []byte("h2"), big2, []byte("tail")},
		"two-bodies":  {big, big2},
	} {
		var sink bytes.Buffer
		fw := newFrameWriter(&sink)
		for round := 0; round < 2; round++ { // the second frame reuses the first one's state
			sink.Reset()
			for _, p := range pieces {
				if n, err := fw.Write(p); n != len(p) || err != nil {
					t.Fatalf("%s: Write = %d, %v", name, n, err)
				}
			}
			if sink.Len() != 0 {
				t.Fatalf("%s: %d bytes reached the connection before Flush", name, sink.Len())
			}
			if err := fw.Flush(); err != nil {
				t.Fatal(err)
			}
			if want := bytes.Join(pieces, nil); !bytes.Equal(sink.Bytes(), want) {
				t.Errorf("%s, frame %d: sent %d bytes, want the %d written, in order", name, round, sink.Len(), len(want))
			}
		}
	}

	var sink bytes.Buffer
	fw := newFrameWriter(&sink)
	fw.Write(make([]byte, gatherMin-1)) // grow the head buffer past one threshold's worth
	fw.Write([]byte("xx"))
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}
	sink.Reset()
	long := append(fw.HeaderBuf(0), randomBody(3, gatherMin+7)...)
	if &long[0] != &fw.HeaderBuf(0)[:1][0] {
		t.Fatal("the fixture's long header no longer fits the head buffer's spare capacity")
	}
	want := append(append([]byte{}, long...), "short piece"...)
	fw.Write(long)
	fw.Write([]byte("short piece"))
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sink.Bytes(), want) {
		t.Errorf("a long header built in HeaderBuf was overwritten by the piece after it (first difference at %d)", firstDiff(sink.Bytes(), want))
	}
}

// TestFailedGatheredWriteDiscardsConnection: a connection whose
// vectored write failed is closed and not parked, and the call reports
// a write *Error — what a failed bufio flush did.
func TestFailedGatheredWriteDiscardsConnection(t *testing.T) {
	broken := &recordingConn{stream: bytes.NewReader(nil), piece: 1, writeErr: errors.New("connection reset by peer")}
	c := NewClient("192.0.2.1:1", 2, time.Second, false)
	defer c.Close()
	cc := &clientConn{c: broken, br: bufio.NewReaderSize(broken, readBufSize), fw: newFrameWriter(broken)}
	c.idle = append(c.idle, cc)
	body := randomBody(4, 70<<10)
	_, _, err := c.Do(context.Background(), 1<<20, func(fw *FrameWriter) error {
		if _, err := fw.Write([]byte("header")); err != nil {
			return err
		}
		_, err := fw.Write(body)
		return err
	})
	var te *Error
	if !errors.As(err, &te) || te.Op != "write" || !errors.Is(err, broken.writeErr) {
		t.Fatalf("Do over a connection that cannot write = %v, want a write *Error wrapping the cause", err)
	}
	if !broken.closed || len(c.idle) != 0 {
		t.Fatalf("after the failed write: connection closed %v, %d parked; want closed and none parked", broken.closed, len(c.idle))
	}
	// The writer forgot the frame: nothing of it is sent with the next one.
	broken.writeErr = nil
	cc.fw.Write([]byte("next"))
	if err := cc.fw.Flush(); err != nil || broken.wrote.String() != "next" {
		t.Fatalf("frame after a failed one = %q, %v", broken.wrote.String(), err)
	}
}

// BenchmarkRoundTrip70K is the transport with nothing behind it: one
// connection carries a chunk-sized body behind a 4-byte header to a
// handler that reads it and answers with it — a Put and a Get's worth
// of bytes, per iteration, through FrameWriter, the connection readers
// and ReadBody on both ends.
func BenchmarkRoundTrip70K(b *testing.B) {
	srv, err := Listen("127.0.0.1:0", "bench", nil, func(br *bufio.Reader, fw *FrameWriter) error {
		var hdr [4]byte
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return err
		}
		body, err := ReadBody(br, int(binary.LittleEndian.Uint32(hdr[:])))
		if err != nil {
			return err
		}
		return WriteResponse(fw, 0, body)
	})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	c := NewClient(srv.Addr(), 1, time.Second, false)
	defer c.Close()
	body := randomBody(5, 70<<10)
	ctx := context.Background()
	b.SetBytes(2 * int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, payload, err := c.Do(ctx, 1<<20, func(fw *FrameWriter) error {
			hdr := binary.LittleEndian.AppendUint32(fw.HeaderBuf(0), uint32(len(body)))
			if _, err := fw.Write(hdr); err != nil {
				return err
			}
			_, err := fw.Write(body)
			return err
		})
		if err != nil || len(payload) != len(body) {
			b.Fatalf("round trip: %d bytes, %v", len(payload), err)
		}
	}
}
