package serve

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/rpc"
	"repro/internal/wire"
)

// Lookup connection framing (integers little-endian), one request at a
// time per connection. The transport — listener, client round trip,
// response frame — is internal/rpc; LKP1's own request header is a bare
// length:
//
//	Request:  u32 bodyLen | body (wire lookup-request encoding)
//	Response: u8 status | u32 payloadLen | payload   (rpc.WriteResponse)
//
// statusOK's payload is the wire lookup-response encoding;
// statusNotReady (replica has no checkpoint yet) and statusError carry
// the error message.
const (
	lookupStatusOK       = 0
	lookupStatusNotReady = 1
	lookupStatusError    = 2

	// maxLookupFrame bounds one framed lookup message in either
	// direction (a full-table scan of a wide table still fits).
	maxLookupFrame = 1 << 26
)

func writeLookupFrame(w io.Writer, body []byte) error {
	if len(body) > maxLookupFrame {
		return fmt.Errorf("serve: frame too long: %d bytes", len(body))
	}
	fw, _ := w.(*rpc.FrameWriter) // on a connection the header is built in place
	hdr := binary.LittleEndian.AppendUint32(fw.HeaderBuf(4), uint32(len(body)))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	_, err := w.Write(body)
	return err
}

func readLookupFrame(r io.Reader) ([]byte, error) {
	hdr := make([]byte, 4)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr)
	if n == 0 || n > maxLookupFrame {
		return nil, fmt.Errorf("serve: frame length %d out of range", n)
	}
	return rpc.ReadBody(r, int(n))
}

// newServer accepts lookup connections for one replica.
func newServer(addr string, rep *Replica) (*rpc.Server, error) {
	return rpc.Listen(addr, "serve "+rep.cfg.JobID, rep.logf, func(br *bufio.Reader, fw *rpc.FrameWriter) error {
		body, err := readLookupFrame(br)
		if err != nil {
			return err
		}
		blob, err := rep.answer(body)
		switch {
		case err == nil:
			return rpc.WriteResponse(fw, lookupStatusOK, blob)
		case errors.Is(err, ErrNotReady):
			return rpc.WriteResponse(fw, lookupStatusNotReady, []byte(err.Error()))
		default:
			return rpc.WriteResponse(fw, lookupStatusError, []byte(err.Error()))
		}
	})
}

// answer decodes one lookup body, runs it against the live version and
// encodes the response.
func (r *Replica) answer(body []byte) ([]byte, error) {
	req, err := wire.DecodeLookupRequest(body)
	if err != nil {
		return nil, err
	}
	resp, err := r.lookup(req)
	if err != nil {
		return nil, err
	}
	return wire.EncodeLookupResponse(resp)
}
