package ctrl

import (
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/rpc"
)

// Wire protocol (all integers little-endian). The transport — listener,
// client round trip, response frame — is internal/rpc; this file is
// what is CNC1's own: the request header and the codes.
//
//	Request:  u32 magic | u8 op | u64 epoch | u32 bodyLen | body (JSON)
//	Response: u8 status | u32 payloadLen | payload   (rpc.WriteResponse)
//
// For statusOK the payload is the op's JSON reply (empty when the op
// has none); for statusFenced and statusError it is the error message.
// Epoch rides in the frame header so fencing is checked before any body
// decoding.
const (
	protoMagic = 0x434E4331 // "CNC1"

	opPrepare  = 1
	opPublish  = 2
	opFinalize = 3
	opAbort    = 4
	opStatus   = 5
	// opWait is the read plane's one verb: a serving replica long-polls
	// the controller's announce endpoint with the last Seq it saw, and
	// the reply names the newest announced composite (see Announcer).
	// Announcements are hints — the committed manifests in the object
	// store remain the source of truth. 6 and 7 belonged to the retired
	// push stream; a reader still speaking it is refused.
	opWait = 8

	statusOK     = 0
	statusFenced = 1
	statusError  = 2
)

// maxBodyLen bounds a control frame. Control messages carry commands
// and manifests, never checkpoint payload; manifests of very wide
// embedding-table sets still fit comfortably.
const maxBodyLen = 1 << 26 // 64 MiB

type request struct {
	op    uint8
	epoch uint64
	body  []byte
}

// writeRequest frames and writes a request.
func writeRequest(w io.Writer, req *request) error {
	if len(req.body) > maxBodyLen {
		return fmt.Errorf("ctrl: request body too long: %d bytes", len(req.body))
	}
	fw, _ := w.(*rpc.FrameWriter) // on a connection the header is built in place
	hdr := binary.LittleEndian.AppendUint32(fw.HeaderBuf(4+1+8+4), protoMagic)
	hdr = append(hdr, req.op)
	hdr = binary.LittleEndian.AppendUint64(hdr, req.epoch)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(req.body)))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	if len(req.body) == 0 {
		return nil
	}
	_, err := w.Write(req.body)
	return err
}

// readRequest reads one framed request.
func readRequest(r io.Reader) (*request, error) {
	hdr := make([]byte, 4+1+8+4)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, err
	}
	if m := binary.LittleEndian.Uint32(hdr); m != protoMagic {
		return nil, fmt.Errorf("ctrl: bad magic 0x%08x", m)
	}
	req := &request{op: hdr[4], epoch: binary.LittleEndian.Uint64(hdr[5:])}
	bodyLen := binary.LittleEndian.Uint32(hdr[13:])
	if bodyLen > maxBodyLen {
		return nil, fmt.Errorf("ctrl: body length %d exceeds limit", bodyLen)
	}
	var err error
	req.body, err = rpc.ReadBody(r, int(bodyLen))
	return req, err
}
