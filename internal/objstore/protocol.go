package objstore

import (
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/rpc"
)

// Wire protocol (all integers little-endian). The transport — listener,
// pooled client, response frame — is internal/rpc; this file is what is
// CNR1's own: the request header and the codes.
//
//	Request:  u32 magic | u8 op | u16 keyLen | key | u32 valueLen | value
//	Response: u8 status | u32 payloadLen | payload   (rpc.WriteResponse)
//
// For GET the response payload is the value; for LIST it is keys joined
// with '\n'; for STAT it is the size as 8 bytes; for errors it is the
// error message. valueLen is zero for ops without a body.
const (
	protoMagic = 0x434E5231 // "CNR1"

	opPut    = 1
	opGet    = 2
	opDelete = 3
	opList   = 4
	opStat   = 5

	statusOK       = 0
	statusNotFound = 1
	statusError    = 2
)

// maxValueLen bounds a single object; a frame claiming more is refused
// before anything is allocated (and rpc.ReadBody commits memory for a
// claim within the bound only as its bytes arrive). Checkpoint chunks
// are far smaller.
const maxValueLen = 1 << 30 // 1 GiB

// maxKeyLen bounds object key length.
const maxKeyLen = 1 << 12

type request struct {
	op    uint8
	key   string
	value []byte
}

// writeRequest frames and writes a request.
func writeRequest(w io.Writer, req *request) error {
	if len(req.key) > maxKeyLen {
		return fmt.Errorf("objstore: key too long: %d bytes", len(req.key))
	}
	if len(req.value) > maxValueLen {
		return fmt.Errorf("objstore: value too long: %d bytes", len(req.value))
	}
	fw, _ := w.(*rpc.FrameWriter) // on a connection the header is built in place
	hdr := binary.LittleEndian.AppendUint32(fw.HeaderBuf(4+1+2+len(req.key)+4), protoMagic)
	hdr = append(hdr, req.op)
	hdr = binary.LittleEndian.AppendUint16(hdr, uint16(len(req.key)))
	hdr = append(hdr, req.key...)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(req.value)))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	if len(req.value) == 0 {
		return nil
	}
	_, err := w.Write(req.value)
	return err
}

// readRequest reads one framed request.
func readRequest(r io.Reader) (*request, error) {
	hdr := make([]byte, 4+1+2)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, err
	}
	if m := binary.LittleEndian.Uint32(hdr); m != protoMagic {
		return nil, fmt.Errorf("objstore: bad magic 0x%08x", m)
	}
	req := &request{op: hdr[4]}
	keyLen := int(binary.LittleEndian.Uint16(hdr[5:]))
	if keyLen > maxKeyLen {
		return nil, fmt.Errorf("objstore: key length %d exceeds limit", keyLen)
	}
	key := make([]byte, keyLen+4)
	if _, err := io.ReadFull(r, key); err != nil {
		return nil, err
	}
	req.key = string(key[:keyLen])
	valueLen := binary.LittleEndian.Uint32(key[keyLen:])
	if valueLen > maxValueLen {
		return nil, fmt.Errorf("objstore: value length %d exceeds limit", valueLen)
	}
	var err error
	req.value, err = rpc.ReadBody(r, int(valueLen))
	return req, err
}
