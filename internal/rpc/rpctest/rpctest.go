// Package rpctest holds the two checks every framed protocol's tests
// share: a byte-for-byte golden comparison of one frame, and the
// property a socket-facing frame decoder must keep for arbitrary input.
package rpctest

import (
	"bytes"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// Golden pins one frame shape to testdata/<name>.bin: encode must write
// exactly the fixture's bytes, and decode must accept the fixture,
// consume all of it and nothing after it, and then refuse the garbage
// that follows. The fixtures were captured from the encoders as they
// stood before the transport moved to internal/rpc and are never
// regenerated — a mismatch is a protocol break, not a stale file.
func Golden(t *testing.T, name string, encode func(io.Writer) error, decode func(io.Reader) error) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", name+".bin"))
	if err != nil {
		t.Fatalf("%s: missing fixture: %v", name, err)
	}
	var got bytes.Buffer
	if err := encode(&got); err != nil {
		t.Fatalf("%s: encode: %v", name, err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("%s: encoder wrote\n%x\nfixture is\n%x", name, got.Bytes(), want)
	}
	garbage := bytes.Repeat([]byte{0xFF}, 32)
	r := bytes.NewReader(append(want[:len(want):len(want)], garbage...))
	if err := decode(r); err != nil {
		t.Fatalf("%s: decode: %v", name, err)
	}
	if r.Len() != len(garbage) {
		t.Fatalf("%s: decode consumed %d bytes of a %d-byte frame", name, len(want)+len(garbage)-r.Len(), len(want))
	}
	if err := decode(r); err == nil {
		t.Fatalf("%s: decode accepted garbage after the frame", name)
	}
}

// Seeds returns the golden fixtures matching the glob patterns, each
// once as captured and once followed by garbage, for seeding a fuzzer.
func Seeds(tb testing.TB, patterns ...string) [][]byte {
	tb.Helper()
	var paths []string
	for _, pattern := range patterns {
		m, err := filepath.Glob(pattern)
		if err != nil || len(m) == 0 {
			tb.Fatalf("no fixtures match %s: %v", pattern, err)
		}
		paths = append(paths, m...)
	}
	var seeds [][]byte
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			tb.Fatal(err)
		}
		seeds = append(seeds, b, append(b[:len(b):len(b)], 0xFF, 0xFF, 0xFF, 0xFF, 0xFF))
	}
	return seeds
}

// allocSlack covers what a decode allocates besides frame bodies
// (headers, request structs, error values).
const allocSlack = 64 << 10

// FuzzDecoder decodes frames from data until the decoder errors or the
// input runs out, and fails t unless: nothing panics; the bytes
// allocated stay within twice the input plus 1 MiB, however large a
// length the input claims; and every frame the decoder accepts
// re-encodes, through the function it returned, to exactly the bytes it
// consumed.
func FuzzDecoder(t *testing.T, data []byte, decode func(io.Reader) (encode func(io.Writer) error, err error)) {
	t.Helper()
	r := bytes.NewReader(data)
	var before, after runtime.MemStats
	for r.Len() > 0 {
		start := len(data) - r.Len()
		runtime.ReadMemStats(&before)
		encode, err := decode(r)
		runtime.ReadMemStats(&after)
		if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(2*len(data)+1<<20+allocSlack); grew > limit {
			t.Fatalf("decoding %d bytes allocated %d (limit %d)", len(data), grew, limit)
		}
		if err != nil {
			return
		}
		var again bytes.Buffer
		if err := encode(&again); err != nil {
			t.Fatalf("re-encoding an accepted frame: %v", err)
		}
		if consumed := data[start : len(data)-r.Len()]; !bytes.Equal(again.Bytes(), consumed) {
			t.Fatalf("accepted frame\n%x\nre-encodes as\n%x", consumed, again.Bytes())
		}
	}
}

// GoldenOnTheWire pins a request frame to testdata/<name>.bin as a
// peer's socket receives it: send runs one round trip against addr
// through the transport's client — whose frame writer, not a
// bytes.Buffer, is what the package's request encoder is handed there —
// and the bytes that arrive must be the fixture's. The test plays the
// server by hand: it reads the fixture's length, answers an empty
// status-0 response and hangs up.
func GoldenOnTheWire(t *testing.T, name string, send func(addr string) error) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", name+".bin"))
	if err != nil {
		t.Fatalf("%s: missing fixture: %v", name, err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	type result struct {
		got []byte
		err error
	}
	done := make(chan result, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			done <- result{err: err}
			return
		}
		defer conn.Close()
		got := make([]byte, len(want))
		if _, err := io.ReadFull(conn, got); err != nil {
			done <- result{err: err}
			return
		}
		_, err = conn.Write([]byte{0, 0, 0, 0, 0})
		done <- result{got: got, err: err}
	}()
	if err := send(ln.Addr().String()); err != nil {
		t.Fatalf("%s: round trip: %v", name, err)
	}
	if r := <-done; r.err != nil || !bytes.Equal(r.got, want) {
		t.Fatalf("%s: the wire carried\n%x\nfixture is\n%x\n(err %v)", name, r.got, want, r.err)
	}
}
