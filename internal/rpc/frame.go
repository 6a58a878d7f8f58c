// Package rpc is the one framed-TCP transport under the repo's three
// protocols: CNR1 (objstore, the data plane), CNC1 (ctrl, the control
// and announce planes) and LKP1 (serve, the read plane). It owns what
// they share — the listener lifecycle (Server), the pooled
// dial/deadline/redial round trip (Client) and the response frame with
// its bounded body reader — and nothing else: request headers differ
// per protocol (key+value, epoch+body, bare length) and stay with
// their packages, as do magics, op codes and status codes.
//
// There is deliberately no stats hook, middleware chain or codec
// interface here; the checkpoint-timeline work is the first caller
// that would need one, and it gets to shape it.
package rpc

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// readBufSize sizes every connection's bufio.Reader: large enough that
// a control frame, a Delete, a Stat or a small lookup arrives in one
// read, small enough that a chunk body does not pass through it — a
// read longer than the buffer goes from the socket straight into the
// body's own slice (a pooled buffer for a response, ReadBody's for a
// request). Of a body only what arrived behind its header is copied
// (and, when the socket delivers it in pieces, a last piece shorter
// than the buffer).
const readBufSize = 4 << 10

// bodyChunk is the most a body reader commits on the strength of a
// length header alone. It is also the pool's largest class, so every
// response body a header can claim without sending it comes from the
// pool.
const bodyChunk = MaxPooled

// ReadBody reads an n-byte frame body into memory of its own, which the
// caller may keep for good: the servers read request bodies with it, and
// a Put's body becomes the stored value. n comes off the wire, so it is
// a claim, not a fact: memory is committed only as bytes arrive — at
// most bodyChunk up front, then doubling — and a peer that sends a
// header and stalls pins 1 MiB, not the protocol's frame limit. Bodies
// up to bodyChunk (every checkpoint chunk and control message) take
// exactly one allocation of exactly n bytes and one ReadFull. Callers
// check n against their protocol's limit first, so over-limit claims
// allocate nothing.
func ReadBody(r io.Reader, n int) ([]byte, error) {
	if n == 0 {
		return nil, nil
	}
	buf := make([]byte, min(n, bodyChunk))
	for filled := 0; ; {
		if _, err := io.ReadFull(r, buf[filled:]); err != nil {
			return nil, err
		}
		if len(buf) == n {
			return buf, nil
		}
		filled = len(buf)
		grown := make([]byte, min(n, 2*filled))
		copy(grown, buf)
		buf = grown
	}
}

// Response frame, identical on every protocol (integers little-endian):
//
//	u8 status | u32 payloadLen | payload
//
// Status codes belong to the protocol; by convention 0 is OK and the
// payload of any other status is the error message.

// responseHeaderLen is the response frame's fixed part.
const responseHeaderLen = 5

// WriteResponse frames and writes a response.
func WriteResponse(w io.Writer, status uint8, payload []byte) error {
	if uint64(len(payload)) > math.MaxUint32 {
		return fmt.Errorf("rpc: response too long: %d bytes", len(payload))
	}
	fw, _ := w.(*FrameWriter)
	hdr := append(fw.HeaderBuf(responseHeaderLen), status)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(payload)))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	if len(payload) == 0 {
		return nil
	}
	_, err := w.Write(payload)
	return err
}

// ReadResponse reads one framed response, refusing payloads longer
// than max (the calling protocol's frame limit) before allocating. From
// a *bufio.Reader — every connection's — the header is read in place. A
// payload up to bodyChunk is read into an Alloc buffer, unzeroed:
// ReadFull writes every byte of it before anyone sees it, and the caller
// may Recycle it.
func ReadResponse(r io.Reader, max int) (status uint8, payload []byte, err error) {
	var hdr []byte
	if br, ok := r.(*bufio.Reader); ok {
		if hdr, err = br.Peek(responseHeaderLen); err == nil {
			_, _ = br.Discard(responseHeaderLen)
		}
	} else {
		hdr = make([]byte, responseHeaderLen)
		_, err = io.ReadFull(r, hdr)
	}
	if err != nil {
		return 0, nil, err
	}
	status, n := hdr[0], binary.LittleEndian.Uint32(hdr[1:])
	if uint64(n) > uint64(max) {
		return 0, nil, fmt.Errorf("rpc: response length %d exceeds limit %d", n, max)
	}
	if n == 0 || n > bodyChunk {
		payload, err = ReadBody(r, int(n))
		return status, payload, err
	}
	payload = Alloc(int(n))
	if _, err := io.ReadFull(r, payload); err != nil {
		Recycle(payload)
		return 0, nil, err
	}
	return status, payload, nil
}
