package proto

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
)

// Fuzz limits: a body over fuzzMax is oversize; the pool's buffers are
// its minimum size, so a legal frame can be larger than one (one-off
// buffer) and a few frames force a roll.
const (
	fuzzMax  = 1024
	fuzzPool = 512
)

// refEvent is one step of the reference framing: a frame, or an
// oversize frame's id.
type refEvent struct {
	tooLarge bool
	f        Frame
}

// refDecode frames data the obvious way — whole input in hand, no
// buffers, no torn reads — and is what FrameReader must agree with
// whatever the read sizes. It returns the events and the error the
// stream ends on.
func refDecode(data []byte, max int) ([]refEvent, error) {
	var evs []refEvent
	for {
		if len(data) == 0 {
			return evs, io.EOF
		}
		// FrameReader wants a whole v1 header before it looks at the
		// magic, so a short garbage tail is a torn frame, not a desync.
		if len(data) < ReqHeaderSize {
			return evs, io.ErrUnexpectedEOF
		}
		hdr, class := ReqHeaderSize, byte(0)
		switch data[0] {
		case ReqMagic:
		case ReqMagicV2:
			hdr = ReqV2HeaderSize
			if len(data) < hdr {
				return evs, io.ErrUnexpectedEOF
			}
			class = data[2]
		default:
			return evs, ErrBadMagic
		}
		id := binary.LittleEndian.Uint64(data[hdr-16:])
		klen := int(binary.LittleEndian.Uint32(data[hdr-8:]))
		vlen := int(binary.LittleEndian.Uint32(data[hdr-4:]))
		if len(data)-hdr < klen+vlen {
			return evs, io.ErrUnexpectedEOF
		}
		body := data[hdr : hdr+klen+vlen]
		if len(body) > max {
			evs = append(evs, refEvent{tooLarge: true, f: Frame{ID: id}})
		} else {
			evs = append(evs, refEvent{f: Frame{Op: data[1], Class: class, ID: id, Key: body[:klen], Val: body[klen:]}})
		}
		data = data[hdr+len(body):]
	}
}

// countingReader counts the reads made through it.
type countingReader struct {
	r     io.Reader
	reads int
}

func (c *countingReader) Read(p []byte) (int, error) {
	c.reads++
	return c.r.Read(p)
}

// FuzzFrameReader: whatever the bytes and however the reads tear them,
// the decoder never panics, frames the stream exactly as the reference
// does (in sync) or stops with the reference's error, keeps every frame
// it handed out intact until released, and each request it accepted can
// be answered with one response that decodes back to its id. A frame
// Ready reports is returned by Next without a read.
func FuzzFrameReader(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, chunk byte) {
		want, wantErr := refDecode(data, fuzzMax)
		var r io.Reader = bytes.NewReader(data)
		if chunk > 0 {
			r = &chunkReader{r: r, n: int(chunk)}
		}
		cr := &countingReader{r: r}
		fr := NewFrameReader(cr, NewPool(fuzzPool), fuzzMax)
		var got []refEvent
		var err error
		for {
			var fm Frame
			var tl *TooLargeError
			ready, reads := fr.Ready(), cr.reads
			fm, err = fr.Next()
			if ready && (err != nil || cr.reads != reads) {
				t.Fatalf("frame %d was ready, then Next read %d times and returned %v", len(got), cr.reads-reads, err)
			}
			if errors.As(err, &tl) {
				got = append(got, refEvent{tooLarge: true, f: Frame{ID: tl.ID}})
			} else if err != nil {
				break
			} else {
				got = append(got, refEvent{f: fm})
			}
		}
		fr.Close()
		if err != wantErr {
			t.Fatalf("stream ended on %v, reference on %v", err, wantErr)
		}
		if len(got) != len(want) {
			t.Fatalf("decoded %d requests, reference %d", len(got), len(want))
		}
		// Compared only now, with the reader closed and every buffer it
		// rolled through long recycled: a frame is valid until released.
		var resps []byte
		for i, w := range want {
			g := got[i]
			if g.tooLarge != w.tooLarge || g.f.Op != w.f.Op || g.f.Class != w.f.Class || g.f.ID != w.f.ID ||
				!bytes.Equal(g.f.Key, w.f.Key) || !bytes.Equal(g.f.Val, w.f.Val) {
				t.Fatalf("request %d = %+v, reference %+v", i, g, w)
			}
			st := StValue
			if g.tooLarge {
				st = StTooLarge
			}
			resps = AppendResponse(resps, st, g.f.ID, g.f.Key)
			g.f.Release()
		}
		rr := NewRespReader(bytes.NewReader(resps), 0)
		for i, w := range want {
			resp, err := rr.Next()
			if err != nil || resp.ID != w.f.ID || !bytes.Equal(resp.Payload, w.f.Key) {
				t.Fatalf("response %d = %+v, %v; want id %d payload %q", i, resp, err, w.f.ID, w.f.Key)
			}
		}
		if _, err := rr.Next(); err != io.EOF {
			t.Fatalf("after %d responses: %v, want io.EOF", len(want), err)
		}
	})
}

// FuzzRequestRoundTrip is the encode↔decode differential: what the three
// request encoders append, FrameReader.Next returns field for field.
func FuzzRequestRoundTrip(f *testing.F) {
	f.Fuzz(func(t *testing.T, op, class byte, id uint64, micros uint32, key, val []byte) {
		var spin [4]byte
		binary.LittleEndian.PutUint32(spin[:], micros)
		want := []Frame{
			{Op: op, ID: id, Key: key, Val: val},
			{Op: op, Class: class, ID: id, Key: key, Val: val},
			{Op: OpSpin, ID: id, Key: spin[:]},
		}
		wire := AppendRequest(nil, op, id, key, val)
		wire = AppendClassRequest(wire, op, class, id, key, val)
		wire = AppendSpinRequest(wire, id, micros)
		fr := NewFrameReader(bytes.NewReader(wire), NewPool(fuzzPool), len(key)+len(val)+4)
		defer fr.Close()
		for i, w := range want {
			g, err := fr.Next()
			if err != nil {
				t.Fatalf("frame %d: %v", i, err)
			}
			if g.Op != w.Op || g.Class != w.Class || g.ID != w.ID || !bytes.Equal(g.Key, w.Key) || !bytes.Equal(g.Val, w.Val) {
				t.Fatalf("frame %d = %+v, encoded %+v", i, g, w)
			}
			if i == 2 {
				if us, ok := DecodeSpin(g.Key); !ok || us != micros {
					t.Fatalf("DecodeSpin = %d, %v; encoded %d", us, ok, micros)
				}
			}
			g.Release()
		}
		if _, err := fr.Next(); err != io.EOF {
			t.Fatalf("after the three frames: %v, want io.EOF", err)
		}
	})
}
