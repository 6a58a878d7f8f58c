package ctrl

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"testing"
	"time"

	"repro/internal/rpc"
	"repro/internal/rpc/rpctest"
)

// TestFrameGolden pins CNC1's on-wire bytes — frame headers and the
// JSON field names inside them — one fixture per frame shape (see
// rpctest.Golden for where the fixtures come from).
func TestFrameGolden(t *testing.T) {
	mustJSON := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	reqFrame := func(name string, want *request) {
		rpctest.Golden(t, name,
			func(w io.Writer) error { return writeRequest(w, want) },
			func(r io.Reader) error {
				got, err := readRequest(r)
				if err == nil && (got.op != want.op || got.epoch != want.epoch || !bytes.Equal(got.body, want.body)) {
					err = fmt.Errorf("decoded %+v, want %+v", got, want)
				}
				return err
			})
		rpctest.GoldenOnTheWire(t, name, func(addr string) error {
			c := rpc.NewClient(addr, 1, time.Second, false)
			defer c.Close()
			_, _, err := c.Do(context.Background(), maxBodyLen, func(fw *rpc.FrameWriter) error { return writeRequest(fw, want) })
			return err
		})
	}
	respFrame := func(name string, status uint8, payload []byte) {
		rpctest.Golden(t, name,
			func(w io.Writer) error { return rpc.WriteResponse(w, status, payload) },
			func(r io.Reader) error {
				gotStatus, gotPayload, err := rpc.ReadResponse(r, maxBodyLen)
				if err == nil && (gotStatus != status || !bytes.Equal(gotPayload, payload)) {
					err = fmt.Errorf("decoded status %d payload %q, want %d %q", gotStatus, gotPayload, status, payload)
				}
				return err
			})
	}
	// The prepare body is a literal, as controllers that still send the
	// retired want_dense flag write it: an agent decodes their requests,
	// because json.Unmarshal skips a field it does not know.
	prepareBody := []byte(`{"job_id":"job","ckpt_id":7,"step":4200,"want_dense":true}`)
	var args PrepareArgs
	if err := json.Unmarshal(prepareBody, &args); err != nil || args != (PrepareArgs{JobID: "job", CkptID: 7, Step: 4200}) {
		t.Fatalf("prepare body decodes to %+v, %v", args, err)
	}
	reqFrame("prepare_request", &request{op: opPrepare, epoch: 3, body: prepareBody})
	respFrame("fenced_response", statusFenced, []byte(fencedf("epoch %d superseded by %d", 2, 3).Error()))
	reqFrame("wait_request", &request{op: opWait, body: mustJSON(&WaitArgs{JobID: "job", After: 7})})
	respFrame("wait_reply", statusOK, mustJSON(&WaitReply{Seq: 8, Epoch: 3, CkptID: 7, Step: 4200}))
}

// FuzzReadRequest: the CNC1 request decoder reads bytes straight off a
// socket, on agents and the announce endpoint (see rpctest.FuzzDecoder
// for the property).
func FuzzReadRequest(f *testing.F) {
	for _, seed := range rpctest.Seeds(f, "testdata/*_request.bin") {
		f.Add(seed)
	}
	f.Add([]byte("1CNC\x01\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x04")) // a header claiming maxBodyLen, and nothing after it
	f.Fuzz(func(t *testing.T, data []byte) {
		rpctest.FuzzDecoder(t, data, func(r io.Reader) (func(io.Writer) error, error) {
			req, err := readRequest(r)
			return func(w io.Writer) error { return writeRequest(w, req) }, err
		})
	})
}
