package objstore

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"testing"
	"time"

	"repro/internal/rpc"
	"repro/internal/rpc/rpctest"
)

// TestFrameGolden pins CNR1's on-wire bytes, one fixture per frame
// shape (see rpctest.Golden for where the fixtures come from).
func TestFrameGolden(t *testing.T) {
	put := &request{op: opPut, key: "job/ckpt/7/chunk/3", value: []byte("\x00\x01chunk bytes\xfe\xff")}
	rpctest.Golden(t, "put_request",
		func(w io.Writer) error { return writeRequest(w, put) },
		func(r io.Reader) error {
			got, err := readRequest(r)
			if err == nil && (got.op != put.op || got.key != put.key || !bytes.Equal(got.value, put.value)) {
				err = fmt.Errorf("decoded %+v, want %+v", got, put)
			}
			return err
		})

	rpctest.GoldenOnTheWire(t, "put_request", func(addr string) error {
		c := rpc.NewClient(addr, 1, time.Second, false)
		defer c.Close()
		_, _, err := c.Do(context.Background(), maxValueLen, func(fw *rpc.FrameWriter) error { return writeRequest(fw, put) })
		return err
	})

	response := func(name string, status uint8, payload []byte) {
		rpctest.Golden(t, name,
			func(w io.Writer) error { return rpc.WriteResponse(w, status, payload) },
			func(r io.Reader) error {
				gotStatus, gotPayload, err := rpc.ReadResponse(r, maxValueLen)
				if err == nil && (gotStatus != status || !bytes.Equal(gotPayload, payload)) {
					err = fmt.Errorf("decoded status %d payload %q, want %d %q", gotStatus, gotPayload, status, payload)
				}
				return err
			})
	}
	response("get_ok_response", statusOK, []byte("\x00\x01chunk bytes\xfe\xff"))
	response("get_notfound_response", statusNotFound, nil)
	response("list_response", statusOK, []byte("job/ckpt/7/chunk/0\njob/ckpt/7/chunk/1\njob/ckpt/7/manifest"))
}

// FuzzReadRequest: the CNR1 request decoder reads bytes straight off a
// socket (see rpctest.FuzzDecoder for the property).
func FuzzReadRequest(f *testing.F) {
	for _, seed := range rpctest.Seeds(f, "testdata/*_request.bin") {
		f.Add(seed)
	}
	f.Add([]byte("1RNC\x01\x01\x00k\x00\x00\x00\x40")) // a header claiming maxValueLen, and nothing after it
	f.Fuzz(func(t *testing.T, data []byte) {
		rpctest.FuzzDecoder(t, data, func(r io.Reader) (func(io.Writer) error, error) {
			req, err := readRequest(r)
			return func(w io.Writer) error { return writeRequest(w, req) }, err
		})
	})
}

// TestHeaderClaimIsNotAnAllocation: a Put header is 12 bytes plus the
// key and may claim a 1 GiB value. Four connections that send only the
// header and stall must cost the server what arrived, not what was
// claimed.
func TestHeaderClaimIsNotAnAllocation(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", NewMemStore(MemConfig{}), ServerConfig{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var hdr bytes.Buffer
	if err := writeRequest(&hdr, &request{op: opPut, key: "k"}); err != nil {
		t.Fatal(err)
	}
	claim := hdr.Bytes()
	binary.LittleEndian.PutUint32(claim[len(claim)-4:], maxValueLen)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < 4; i++ {
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := conn.Write(claim); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(200 * time.Millisecond) // let all four handlers decode their header
	runtime.ReadMemStats(&after)
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > 8<<20 {
		t.Fatalf("4 stalled %d-byte headers grew the heap by %d MiB", len(claim), grew>>20)
	}

	// A claim over the limit is refused outright: the server hangs up.
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	binary.LittleEndian.PutUint32(claim[len(claim)-4:], maxValueLen+1)
	if _, err := conn.Write(claim); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); !errors.Is(err, io.EOF) {
		t.Fatalf("over-limit claim: read = %v, want the server to close the connection", err)
	}
}
