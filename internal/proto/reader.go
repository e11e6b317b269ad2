// FrameReader: the zero-copy server-side decode path. Frames are
// parsed in place inside pooled buffers; a frame that is torn across
// two reads is completed by rolling the unparsed tail into the next
// buffer, so handlers always see contiguous key/value slices without a
// per-frame copy or allocation.
package proto

import (
	"bufio"
	"encoding/binary"
	"io"
)

// Frame is one decoded request. Key and Val alias the reader's pooled
// buffer: they are valid until Release, which must be called exactly
// once — typically after the response has been written.
type Frame struct {
	Op byte
	// Class is the request's SLO class: the v2 frame's class byte, 0
	// (standard) for v1 frames.
	Class byte
	ID    uint64
	Key   []byte
	Val   []byte
	buf   *Buffer
}

// Release drops the frame's buffer reference. Key and Val must not be
// used afterwards. Safe to call from a different goroutine than the
// reader's (the flusher releases frames as it writes responses).
func (f *Frame) Release() {
	if f.buf != nil {
		f.buf.Release()
		f.buf = nil
	}
}

// FrameReader decodes request frames from a stream into pooled buffers.
// Not safe for concurrent use; one per connection.
type FrameReader struct {
	r    io.Reader
	pool *Pool
	max  int // maximum body (key+value) bytes per frame

	buf        *Buffer
	start, end int // unparsed window within buf.B
}

// NewFrameReader wraps r. max bounds a frame's body (key length plus
// value length); frames over it produce a *TooLargeError from Next and
// are skipped, keeping the stream usable.
func NewFrameReader(r io.Reader, pool *Pool, max int) *FrameReader {
	return &FrameReader{r: r, pool: pool, max: max}
}

// Prime seeds already-consumed bytes (the auto-detection peek) so they
// are decoded before anything further is read from the stream.
func (fr *FrameReader) Prime(b []byte) {
	if len(b) == 0 {
		return
	}
	fr.buf = fr.pool.getSized(len(b))
	fr.end = copy(fr.buf.B, b)
}

// Close releases the reader's buffer reference. Frames already handed
// out stay valid until their own Release.
func (fr *FrameReader) Close() {
	if fr.buf != nil {
		fr.buf.Release()
		fr.buf = nil
	}
}

// Ready reports whether the next frame is already buffered whole, so
// that Next returns it without reading the stream. An oversized frame
// or a bad magic is never ready.
func (fr *FrameReader) Ready() bool {
	if fr.buf == nil || fr.start == fr.end {
		return false
	}
	h := fr.buf.B[fr.start:fr.end]
	var hdr int
	switch h[0] {
	case ReqMagic:
		hdr = ReqHeaderSize
	case ReqMagicV2:
		hdr = ReqV2HeaderSize
	default:
		return false
	}
	if len(h) < hdr {
		return false
	}
	body := int64(binary.LittleEndian.Uint32(h[hdr-8:])) + int64(binary.LittleEndian.Uint32(h[hdr-4:]))
	return body <= int64(fr.max) && int64(len(h)) >= int64(hdr)+body
}

// Next decodes the next frame. It returns io.EOF at a clean frame
// boundary, io.ErrUnexpectedEOF mid-frame, ErrBadMagic on a desynced
// stream, and *TooLargeError (stream still usable) for an oversized
// frame. Any other error is the underlying reader's.
func (fr *FrameReader) Next() (Frame, error) {
	if err := fr.ensure(ReqHeaderSize, true); err != nil {
		return Frame{}, err
	}
	h := fr.buf.B[fr.start:]
	// Version by magic: v1 fields start at offset 2, v2 inserts the SLO
	// class byte there and shifts the rest by one.
	hdr := ReqHeaderSize
	var class byte
	switch h[0] {
	case ReqMagic:
	case ReqMagicV2:
		hdr = ReqV2HeaderSize
		if err := fr.ensure(hdr, false); err != nil {
			return Frame{}, err
		}
		h = fr.buf.B[fr.start:] // ensure may have rolled the buffer
		class = h[2]
	default:
		return Frame{}, ErrBadMagic
	}
	op := h[1]
	id := binary.LittleEndian.Uint64(h[hdr-16:])
	klen := int64(binary.LittleEndian.Uint32(h[hdr-8:]))
	vlen := int64(binary.LittleEndian.Uint32(h[hdr-4:]))
	body := klen + vlen
	if body > int64(fr.max) {
		// Skip the body without buffering it: consume what is already
		// read, drop the rest on the floor, and report the id so the
		// server can answer StTooLarge on a still-synced stream.
		fr.start += hdr
		have := int64(fr.end - fr.start)
		if have > body {
			have = body
		}
		fr.start += int(have)
		if rest := body - have; rest > 0 {
			if _, err := io.CopyN(io.Discard, fr.r, rest); err != nil {
				if err == io.EOF {
					err = io.ErrUnexpectedEOF
				}
				return Frame{}, err
			}
		}
		return Frame{}, &TooLargeError{ID: id, Size: int(body), Max: fr.max}
	}
	total := hdr + int(body)
	if err := fr.ensure(total, false); err != nil {
		return Frame{}, err
	}
	b := fr.buf.B[fr.start:]
	f := Frame{
		Op:    op,
		Class: class,
		ID:    id,
		Key:   b[hdr : hdr+int(klen) : hdr+int(klen)],
		Val:   b[hdr+int(klen) : total : total],
		buf:   fr.buf,
	}
	fr.buf.Retain()
	fr.start += total
	return f, nil
}

// ensure makes at least n contiguous unparsed bytes available at
// fr.start, rolling to a fresh (or one-off oversized) buffer when the
// current one lacks tail room. atBoundary selects the clean-EOF
// semantics: io.EOF with nothing buffered, io.ErrUnexpectedEOF
// otherwise.
func (fr *FrameReader) ensure(n int, atBoundary bool) error {
	avail := fr.end - fr.start
	if avail >= n && fr.buf != nil {
		return nil
	}
	if fr.buf == nil {
		fr.buf = fr.pool.getSized(n)
		fr.start, fr.end = 0, 0
	} else if fr.start+n > len(fr.buf.B) {
		if avail == 0 && n <= len(fr.buf.B) && fr.buf.refs.Load() == 1 {
			// Sole owner and fully parsed: recycle in place. No frame
			// can alias the contents (refs would be >1) and nobody else
			// can retain a buffer they hold no reference to.
			fr.start, fr.end = 0, 0
		} else {
			// Roll: move the unparsed tail into a fresh buffer and drop
			// the reader's reference on the old one. Frames cut from it
			// keep it alive until their responses flush.
			nb := fr.pool.getSized(n)
			copy(nb.B, fr.buf.B[fr.start:fr.end])
			fr.buf.Release()
			fr.buf = nb
			fr.start, fr.end = 0, avail
		}
	}
	for fr.end-fr.start < n {
		m, err := fr.r.Read(fr.buf.B[fr.end:])
		fr.end += m
		if err != nil {
			if err == io.EOF {
				if atBoundary && fr.end == fr.start {
					return io.EOF
				}
				return io.ErrUnexpectedEOF
			}
			return err
		}
	}
	return nil
}

// Resp is one decoded response frame. Payload aliases the RespReader's
// internal buffer: valid only until the next call to Next.
type Resp struct {
	Status  byte
	ID      uint64
	Payload []byte
}

// RespReader decodes response frames on the client side. Unlike
// FrameReader it does not pool: one grow-only payload buffer is reused
// across responses, which is allocation-free in steady state for a
// single-reader connection. The header is read into the reader too: a
// header array local to Next would reach io.ReadFull through io.Reader
// and be moved to the heap on every call.
type RespReader struct {
	br      *bufio.Reader
	h       [RespHeaderSize]byte
	payload []byte
}

// NewRespReader wraps r with a bufSize-byte read buffer (minimum the
// response header size; 0 picks a small default suited to fan-in).
func NewRespReader(r io.Reader, bufSize int) *RespReader {
	if bufSize < RespHeaderSize {
		bufSize = 2048
	}
	return &RespReader{br: bufio.NewReaderSize(r, bufSize)}
}

// Next decodes the next response: io.EOF at a clean boundary,
// io.ErrUnexpectedEOF mid-frame, ErrBadMagic on desync.
func (rr *RespReader) Next() (Resp, error) {
	h := &rr.h
	if _, err := io.ReadFull(rr.br, h[:1]); err != nil {
		return Resp{}, err // io.EOF here is a clean boundary
	}
	if h[0] != RespMagic {
		return Resp{}, ErrBadMagic
	}
	if _, err := io.ReadFull(rr.br, h[1:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return Resp{}, err
	}
	plen := int(binary.LittleEndian.Uint32(h[10:]))
	if cap(rr.payload) < plen {
		rr.payload = make([]byte, plen)
	}
	rr.payload = rr.payload[:plen]
	if _, err := io.ReadFull(rr.br, rr.payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return Resp{}, err
	}
	return Resp{Status: h[1], ID: binary.LittleEndian.Uint64(h[2:]), Payload: rr.payload}, nil
}
