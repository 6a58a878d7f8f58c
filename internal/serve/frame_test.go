package serve

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"testing"
	"time"

	"repro/internal/rpc"
	"repro/internal/rpc/rpctest"
	"repro/internal/wire"
)

// TestFrameGolden pins LKP1's on-wire bytes — the connection framing
// around wire's lookup bodies — one fixture per frame shape (see
// rpctest.Golden for where the fixtures come from).
func TestFrameGolden(t *testing.T) {
	reqBody, err := wire.EncodeLookupRequest(&wire.LookupRequest{TableID: 2, Indices: []uint32{0, 17, 4096}})
	if err != nil {
		t.Fatal(err)
	}
	rpctest.Golden(t, "lookup_request",
		func(w io.Writer) error { return writeLookupFrame(w, reqBody) },
		func(r io.Reader) error {
			got, err := readLookupFrame(r)
			if err == nil && !bytes.Equal(got, reqBody) {
				err = fmt.Errorf("decoded %x, want %x", got, reqBody)
			}
			return err
		})

	rpctest.GoldenOnTheWire(t, "lookup_request", func(addr string) error {
		c := rpc.NewClient(addr, 1, time.Second, false)
		defer c.Close()
		_, _, err := c.Do(context.Background(), maxLookupFrame, func(fw *rpc.FrameWriter) error { return writeLookupFrame(fw, reqBody) })
		return err
	})

	response := func(name string, status uint8, payload []byte) {
		rpctest.Golden(t, name,
			func(w io.Writer) error { return rpc.WriteResponse(w, status, payload) },
			func(r io.Reader) error {
				gotStatus, gotPayload, err := rpc.ReadResponse(r, maxLookupFrame)
				if err == nil && (gotStatus != status || !bytes.Equal(gotPayload, payload)) {
					err = fmt.Errorf("decoded status %d payload %q, want %d %q", gotStatus, gotPayload, status, payload)
				}
				return err
			})
	}
	okBody, err := wire.EncodeLookupResponse(&wire.LookupResponse{
		CkptID: 7, Step: 4200, Dim: 2, Vectors: []float32{0.5, -1.25, 3, 1e-7, 0, 42}})
	if err != nil {
		t.Fatal(err)
	}
	response("lookup_ok_response", lookupStatusOK, okBody)
	response("lookup_notready_response", lookupStatusNotReady, []byte(ErrNotReady.Error()))
}

// FuzzLookupFrame: the LKP1 request decoder — connection framing, then
// wire's body decoder, as the server runs them — reads bytes straight
// off a socket (see rpctest.FuzzDecoder for the property).
func FuzzLookupFrame(f *testing.F) {
	for _, seed := range rpctest.Seeds(f, "testdata/lookup_request.bin") {
		f.Add(seed)
	}
	f.Add([]byte{0, 0, 0, 4}) // a header claiming maxLookupFrame, and nothing after it
	f.Fuzz(func(t *testing.T, data []byte) {
		rpctest.FuzzDecoder(t, data, func(r io.Reader) (func(io.Writer) error, error) {
			body, err := readLookupFrame(r)
			if err != nil {
				return nil, err
			}
			// A body the lookup decoder accepts must re-encode to itself;
			// one it refuses is answered with statusError and the
			// connection carries on, so the frame still counts.
			if req, err := wire.DecodeLookupRequest(body); err == nil {
				if again, err := wire.EncodeLookupRequest(req); err != nil || !bytes.Equal(again, body) {
					t.Fatalf("lookup body %x re-encodes as %x (%v)", body, again, err)
				}
			}
			return func(w io.Writer) error { return writeLookupFrame(w, body) }, nil
		})
	})
}
