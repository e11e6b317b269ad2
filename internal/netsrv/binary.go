// The binary codec: length-prefixed frames decoded zero-copy into pooled
// ref-counted buffers, responses matched to requests by id. Frames and
// flushes are its counters; a text response is neither.
package netsrv

import (
	"errors"

	"concord/internal/live"
	"concord/internal/proto"
)

type binaryCodec struct {
	s  *Server
	fr *proto.FrameReader
}

func (bc *binaryCodec) next(r *Request) (bool, error) {
	s := bc.s
	f, err := bc.fr.Next()
	if err != nil {
		var tl *proto.TooLargeError
		if errors.As(err, &tl) {
			// Oversized frame: the body was discarded and the stream is
			// still synced. Answer TOOLARGE and keep serving.
			s.tooLarge.Add(1)
			r.ID, r.Status = tl.ID, proto.StTooLarge
			return false, nil
		}
		// EOF at a boundary, mid-frame close, desync (ErrBadMagic), read
		// error. Mid-frame data was never a request.
		if errors.Is(err, proto.ErrBadMagic) {
			s.badFrames.Add(1)
		}
		return false, err
	}
	s.framesIn.Add(1)
	r.Op, r.ID, r.Key, r.Val, r.frame = f.Op, f.ID, f.Key, f.Val, f
	if f.Class != 0 {
		if cl := live.SLOClass(f.Class); cl < live.NumClasses {
			r.Class = cl
		} else {
			// A class byte the server doesn't know is a malformed v2
			// frame, not a silent downgrade to standard: reject it so
			// the tenant's misconfiguration is visible.
			s.badFrames.Add(1)
			r.Status, r.errMsg = proto.StBadRequest, "unknown SLO class"
			return false, nil
		}
	}
	if s.tr != nil {
		r.readTS = live.NowStamp()
	}
	if !r.decodeOp() {
		// Unknown opcode or undecodable body: the frame was
		// length-delimited so the stream is synced; reject just this
		// request.
		s.badFrames.Add(1)
		r.Status = proto.StBadRequest
		return false, nil
	}
	if s.tr != nil {
		r.parsedTS = live.NowStamp()
	}
	return true, nil
}

func (bc *binaryCodec) ready() bool { return bc.fr.Ready() }

func (bc *binaryCodec) appendResp(b []byte, r *Request) []byte {
	switch r.Status {
	case proto.StCount:
		return proto.AppendCountResponse(b, r.ID, r.Count)
	case proto.StErr, proto.StBadRequest:
		return proto.AppendResponse(b, r.Status, r.ID, []byte(r.errMsg))
	default:
		return proto.AppendResponse(b, r.Status, r.ID, r.Out)
	}
}

func (bc *binaryCodec) flushed(n int) {
	bc.s.flushes.Add(1)
	bc.s.framesOut.Add(uint64(n))
	bc.s.flushBatch.Observe(int64(n))
}
