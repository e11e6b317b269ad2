// The text codec: the historical line protocol. One line is one
// request, parsed in place — Key and Val alias the read buffer — so the
// connection runs with a window of 1. Lines the data protocol does not
// know go to Options.Control, whose output rides the Request to the
// flusher like any other response.
package netsrv

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"time"

	"concord/internal/live"
	"concord/internal/proto"
)

// errTooLong marks a line over MaxReq; the line was consumed through
// its newline, so the stream is still usable.
var errTooLong = errors.New("netsrv: line too long")

// stControl marks a Request answered by Options.Control: Out holds the
// verb's output, newlines included. Never on the wire.
const stControl byte = 0xff

type textCodec struct {
	s     *Server
	br    *bufio.Reader
	spill []byte       // reused overflow for lines longer than br's buffer
	ctl   bytes.Buffer // reused control-verb output
	obsOn bool         // the connection's OBS ON toggle
}

func (tc *textCodec) next(r *Request) (bool, error) {
	s := tc.s
	line, err := readLine(tc.br, &tc.spill, s.opts.MaxReq)
	if err == errTooLong {
		s.tooLarge.Add(1)
		s.textLines.Add(1)
		r.Status = proto.StTooLarge
		return false, nil
	}
	if err != nil {
		return false, err
	}
	s.textLines.Add(1)
	if s.tr != nil {
		r.readTS = live.NowStamp()
	}
	perr := parseText(line, r)
	if perr == nil {
		if s.tr != nil {
			r.parsedTS = live.NowStamp()
		}
		r.obsOn = tc.obsOn
		return true, nil
	}
	if perr == errUnknownOp && s.opts.Control != nil {
		tc.ctl.Reset()
		if s.opts.Control(&tc.ctl, string(line), &tc.obsOn) {
			r.Status, r.Out = stControl, tc.ctl.Bytes()
			return false, nil
		}
	}
	r.Status, r.errMsg = proto.StErr, perr.Error()
	return false, nil
}

// ready reports a whole line buffered. With a window of 1 the reader
// writes before every read whatever it says; it decides whether the idle
// deadline is re-armed.
func (tc *textCodec) ready() bool {
	b, _ := tc.br.Peek(tc.br.Buffered())
	return bytes.IndexByte(b, '\n') >= 0
}

func (tc *textCodec) appendResp(b []byte, r *Request) []byte {
	if r.Status == stControl {
		return append(b, r.Out...)
	}
	b = append(r.appendText(b), r.trailer...)
	return append(b, '\n')
}

func (tc *textCodec) flushed(int) {}

// readLine returns the next newline-terminated line (EOL stripped),
// spilling lines longer than the reader's buffer into *spill. Lines over
// max — terminator included — are consumed to their newline and reported
// as errTooLong. A final unterminated line before EOF is returned as a
// line, matching the old bufio.Scanner behavior.
func readLine(br *bufio.Reader, spill *[]byte, max int) ([]byte, error) {
	line, err := br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		buf := append((*spill)[:0], line...)
		for err == bufio.ErrBufferFull {
			if len(buf) > max {
				*spill = buf[:0]
				return nil, discardLine(br)
			}
			line, err = br.ReadSlice('\n')
			buf = append(buf, line...)
		}
		*spill = buf[:0]
		line = buf
	}
	switch {
	case err == nil && len(line) > max:
		return nil, errTooLong
	case err == nil, err == io.EOF && len(line) > 0 && len(line) <= max:
		return trimEOL(line), nil
	default:
		return nil, err
	}
}

// discardLine consumes the rest of an oversized line and reports
// errTooLong, or the read error that cut it short.
func discardLine(br *bufio.Reader) error {
	for {
		_, err := br.ReadSlice('\n')
		if err == nil {
			return errTooLong
		}
		if err != bufio.ErrBufferFull {
			return err
		}
	}
}

func trimEOL(b []byte) []byte {
	if n := len(b); n > 0 && b[n-1] == '\n' {
		b = b[:n-1]
	}
	if n := len(b); n > 0 && b[n-1] == '\r' {
		b = b[:n-1]
	}
	return b
}

// errUnknownOp distinguishes "not a data op" (maybe a control line)
// from a malformed data op.
var errUnknownOp = errors.New("unknown op")

type parseError string

func (e parseError) Error() string { return string(e) }

// parseText parses one data line into req without allocating: Key and
// Val alias line, which stays valid until the next read.
// A line may open with an SLO-class token (`@critical GET k`); the
// token sets req.Class and the rest of the line parses as usual. An
// unknown @token is a parse error, not errUnknownOp — '@' never opens
// a control verb, so the line can only be a malformed data op.
func parseText(line []byte, req *Request) error {
	op, rest := cutSpace(line)
	if len(op) > 0 && op[0] == '@' {
		switch {
		case bytes.EqualFold(op[1:], clCRITICAL):
			req.Class = live.ClassCritical
		case bytes.EqualFold(op[1:], clSHEDDABLE):
			req.Class = live.ClassSheddable
		case bytes.EqualFold(op[1:], clSTANDARD):
			req.Class = live.ClassStandard
		default:
			return parseError("unknown SLO class " + string(op))
		}
		if rest == nil {
			return parseError("class token needs a command")
		}
		op, rest = cutSpace(rest)
	}
	switch {
	case bytes.EqualFold(op, opGET):
		if len(rest) == 0 {
			return parseError("GET needs a key")
		}
		req.Op, req.Key = proto.OpGet, rest
	case bytes.EqualFold(op, opDEL):
		if len(rest) == 0 {
			return parseError("DEL needs a key")
		}
		req.Op, req.Key = proto.OpDel, rest
	case bytes.EqualFold(op, opPUT):
		key, val := cutSpace(rest)
		if len(key) == 0 || val == nil {
			return parseError("PUT needs key and value")
		}
		req.Op, req.Key, req.Val = proto.OpPut, key, val
	case bytes.EqualFold(op, opSCAN):
		req.Op = proto.OpScan
	case bytes.EqualFold(op, opSPIN):
		us, ok := parseUint(rest)
		if !ok {
			return parseError("bad SPIN duration")
		}
		req.Op, req.Key = proto.OpSpin, rest
		req.Spin = time.Duration(us) * time.Microsecond
	default:
		return errUnknownOp
	}
	return nil
}

var (
	opGET  = []byte("GET")
	opPUT  = []byte("PUT")
	opDEL  = []byte("DEL")
	opSCAN = []byte("SCAN")
	opSPIN = []byte("SPIN")

	clCRITICAL  = []byte("critical")
	clSTANDARD  = []byte("standard")
	clSHEDDABLE = []byte("sheddable")
)

// cutSpace splits b at its first space.
func cutSpace(b []byte) (head, tail []byte) {
	if i := bytes.IndexByte(b, ' '); i >= 0 {
		return b[:i], b[i+1:]
	}
	return b, nil
}

// parseUint is a no-allocation strconv.Atoi for non-negative values.
func parseUint(b []byte) (uint64, bool) {
	if len(b) == 0 || len(b) > 19 {
		return 0, false
	}
	var v uint64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		v = v*10 + uint64(c-'0')
	}
	return v, true
}
