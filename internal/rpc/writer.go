package rpc

import (
	"io"
	"net"
)

// gatherMin is the smallest piece a FrameWriter sends by reference.
// Anything shorter — headers, control bodies, lookups, Stat replies —
// is cheaper to copy next to its header than to give its own iovec.
const gatherMin = 4 << 10

// FrameWriter assembles one frame and sends it with one write. Pieces
// shorter than gatherMin are copied into a reusable head buffer; a
// longer piece (a chunk body) is held by reference until Flush, which
// sends head and bodies as one net.Buffers write — writev on a TCP
// connection — so a body crosses user space once, from the caller's
// slice into the socket.
//
// The borrow is the caller's contract: a slice passed to Write must not
// change until the frame is flushed. Client.Do flushes before it
// returns and Listen flushes when its handler returns, which is what
// "do not touch the value until Put returns" already promises one layer
// up. A failed Flush leaves the connection in an unknown state, exactly
// as a failed bufio flush did: the owner discards it.
type FrameWriter struct {
	conn io.Writer
	head []byte      // the copied pieces of the frame being assembled
	sent int         // head[:sent] is already in segs
	segs net.Buffers // the frame so far, in order: runs of head, borrowed bodies
	out  net.Buffers // Flush's cursor over segs; a field so WriteTo's receiver is not a fresh allocation
}

func newFrameWriter(conn io.Writer) *FrameWriter {
	return &FrameWriter{conn: conn, head: make([]byte, 0, gatherMin)}
}

// HeaderBuf returns an empty slice for a frame header of about n bytes
// that is appended to and passed straight to Write: the head buffer's
// spare capacity, so the header is built in place and allocates nothing
// (bufio.Writer's AvailableBuffer idiom). An encoder that writes to any
// io.Writer calls it on the result of its type assertion; on a nil
// FrameWriter — the writer was something else — it returns a fresh
// slice with room for n bytes.
func (w *FrameWriter) HeaderBuf(n int) []byte {
	if w == nil {
		return make([]byte, 0, n)
	}
	return w.head[len(w.head):]
}

// Write adds p to the frame: copied if short (or built in HeaderBuf,
// whose memory the next short piece would reuse), borrowed until Flush
// if not. It never touches the connection.
func (w *FrameWriter) Write(p []byte) (int, error) {
	spare := w.head[len(w.head):cap(w.head)]
	if len(p) < gatherMin || (len(spare) > 0 && &p[0] == &spare[0]) {
		w.head = append(w.head, p...)
		return len(p), nil
	}
	w.cutHead()
	w.segs = append(w.segs, p)
	return len(p), nil
}

// cutHead moves the head bytes written since the last cut into segs. A
// later append may move head to a larger array; the run cut here keeps
// pointing at the old one, whose bytes no longer change.
func (w *FrameWriter) cutHead() {
	if w.sent < len(w.head) {
		w.segs = append(w.segs, w.head[w.sent:])
		w.sent = len(w.head)
	}
}

// Flush sends the frame and forgets it, borrowed slices included,
// whether or not the write succeeded.
func (w *FrameWriter) Flush() error {
	w.cutHead()
	var err error
	switch len(w.segs) {
	case 0:
	case 1:
		_, err = w.conn.Write(w.segs[0])
	default:
		w.out = w.segs
		_, err = w.out.WriteTo(w.conn)
	}
	clear(w.segs)
	w.head, w.sent, w.segs, w.out = w.head[:0], 0, w.segs[:0], nil
	return err
}
