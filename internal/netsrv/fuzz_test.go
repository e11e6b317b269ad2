package netsrv

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"testing"

	"concord/internal/proto"
)

// The fuzz limits are small so that inputs a fuzzer reaches quickly are
// on both sides of them. The text reader's buffer sits between the two
// MaxReq values: under the small one the limit falls on lines the buffer
// held whole, under the large one on lines that spilled.
const (
	fuzzMaxReq      = 64
	fuzzTextBuf     = 96
	fuzzMaxReqSpill = 256
)

// fuzzServer is a Server with no runtime: the fuzz targets drive a
// codec by hand, which never touches one.
func fuzzServer(maxReq int) *Server {
	return New(nil, Options{
		MaxReq: maxReq,
		Control: func(out io.Writer, line string, obsOn *bool) bool {
			switch line {
			case "STATS":
				io.WriteString(out, "STATS ok=1\n")
			case "OBS ON", "OBS OFF":
				*obsOn = line == "OBS ON"
				io.WriteString(out, "OK\n")
			default:
				return false
			}
			return true
		},
	})
}

// tornReader yields at most n bytes per Read (everything when n is 0).
type tornReader struct {
	r io.Reader
	n int
}

func (tr *tornReader) Read(p []byte) (int, error) {
	if tr.n > 0 && len(p) > tr.n {
		p = p[:tr.n]
	}
	return tr.r.Read(p)
}

// answered is one request a codec accepted, as it was when its response
// was encoded.
type answered struct {
	id     uint64
	status byte
}

// answerAll drives cd to the end of its input the way serve does, with
// the runtime replaced by a stub that answers every submitted request on
// the spot. It returns what was accepted, in order, and the encoded
// responses.
func answerAll(s *Server, cd codec) (reqs []answered, out []byte) {
	for {
		r := s.getReq()
		submit, err := cd.next(r)
		if err != nil {
			s.putReq(r)
			return reqs, out
		}
		if submit {
			switch r.Op {
			case proto.OpGet:
				r.Status, r.Out = proto.StValue, r.Key
			case proto.OpDel:
				r.Status = proto.StNotFound
			case proto.OpScan:
				r.Status, r.Count = proto.StCount, uint64(len(reqs))
			default:
				r.Status = proto.StOK
			}
		}
		reqs = append(reqs, answered{r.ID, r.Status})
		out = cd.appendResp(out, r)
		s.putReq(r)
	}
}

// parseReply is the client side of the text protocol: a status token,
// then — for the statuses that carry one — a space and the payload.
func parseReply(line []byte) (status byte, payload []byte, ok bool) {
	token, payload := cutSpace(line)
	for st := proto.StOK; st <= proto.StShed; st++ {
		if st == proto.StBadRequest || string(token) != proto.StatusString(st) {
			continue // text has no BADREQUEST token: a bad line answers ERR
		}
		carries := st == proto.StValue || st == proto.StCount || st == proto.StErr
		return st, payload, carries == (payload != nil)
	}
	return 0, nil, false
}

// refLine is one line of the reference split: its text, or that it was
// over the limit (terminator included).
type refLine struct {
	text     []byte
	oversize bool
}

// refLines splits text input the obvious way, whole input in hand. An
// oversize unterminated tail is not a request at all.
func refLines(data []byte, max int) (lines []refLine) {
	for len(data) > 0 {
		raw, rest, terminated := bytes.Cut(data, []byte("\n"))
		switch {
		case !terminated && len(raw) > max:
		case terminated && len(raw)+1 > max:
			lines = append(lines, refLine{oversize: true})
		default:
			lines = append(lines, refLine{text: bytes.TrimSuffix(raw, []byte("\r"))})
		}
		data = rest
	}
	return lines
}

// FuzzTextCodec: whatever the bytes and however the reads tear them,
// readLine and parseText never panic, every line of the input is taken
// as exactly one request (in sync) with the oversize ones — and only
// those — answered TOOLARGE, and each request's response is one line
// the client side can parse.
func FuzzTextCodec(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, chunk byte, spill bool) {
		maxReq := fuzzMaxReq
		if spill {
			maxReq = fuzzMaxReqSpill
		}
		s := fuzzServer(maxReq)
		br := bufio.NewReaderSize(&tornReader{bytes.NewReader(data), int(chunk)}, fuzzTextBuf)
		reqs, out := answerAll(s, &textCodec{s: s, br: br})
		want := refLines(data, maxReq)
		if len(reqs) != len(want) {
			t.Fatalf("%d requests from %d lines", len(reqs), len(want))
		}
		replies := bytes.Split(out, []byte("\n"))
		if last := len(replies) - 1; len(replies[last]) != 0 {
			t.Fatalf("output does not end in a newline: %q", out)
		} else if replies = replies[:last]; len(replies) != len(reqs) {
			t.Fatalf("%d reply lines for %d requests: %q", len(replies), len(reqs), out)
		}
		for i, req := range reqs {
			if want[i].oversize != (req.status == proto.StTooLarge) {
				t.Fatalf("line %d %q (oversize %v) answered %s", i, want[i].text, want[i].oversize, proto.StatusString(req.status))
			}
			if req.status == stControl {
				continue // the verb's own output, already counted as one line
			}
			if st, _, ok := parseReply(replies[i]); !ok || st != req.status {
				t.Fatalf("line %d %q: reply %q does not parse as %s", i, want[i].text, replies[i], proto.StatusString(req.status))
			}
		}
	})
}

// FuzzBinaryCodec: every frame the binary codec accepts — submitted, or
// answered by the codec itself as oversize, bad class or bad opcode —
// gets exactly one response frame, in order, carrying its id and status.
// (That the frames are the right ones is proto's FuzzFrameReader.)
func FuzzBinaryCodec(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, chunk byte) {
		s := fuzzServer(fuzzMaxReq)
		fr := proto.NewFrameReader(&tornReader{bytes.NewReader(data), int(chunk)}, s.bufPool, fuzzMaxReq)
		reqs, out := answerAll(s, &binaryCodec{s: s, fr: fr})
		fr.Close()
		rr := proto.NewRespReader(bytes.NewReader(out), 0)
		for i, req := range reqs {
			resp, err := rr.Next()
			if err != nil || resp.ID != req.id || resp.Status != req.status {
				t.Fatalf("response %d = %+v, %v; want id %d status %s", i, resp, err, req.id, proto.StatusString(req.status))
			}
		}
		if _, err := rr.Next(); err != io.EOF {
			t.Fatalf("after %d responses: %v, want io.EOF", len(reqs), err)
		}
		if st := s.NetStats(); st.FramesIn+st.TooLarge != uint64(len(reqs)) {
			t.Fatalf("%d frames in + %d too large, %d requests", st.FramesIn, st.TooLarge, len(reqs))
		}
	})
}

// TestTextReplyRoundTrip is the text encode↔decode differential: the
// line appendText renders for each status parses, client side, back to
// that status and payload.
func TestTextReplyRoundTrip(t *testing.T) {
	for st := proto.StOK; st <= proto.StShed; st++ {
		for _, payload := range []string{"v", "two words", "", " lead", "VALUE x", "18446744073709551615"} {
			r := Request{Status: st, Out: []byte(payload), errMsg: payload}
			r.Count, _ = strconv.ParseUint(payload, 10, 64)
			want, wantPayload := st, payload
			switch st {
			case proto.StBadRequest:
				want = proto.StErr
			case proto.StCount:
				wantPayload = fmt.Sprint(r.Count)
			case proto.StValue, proto.StErr:
			default:
				wantPayload = ""
			}
			line := r.appendText(nil)
			got, gotPayload, ok := parseReply(line)
			if !ok || got != want || string(gotPayload) != wantPayload {
				t.Errorf("%s %q rendered %q, parsed as %s %q ok=%v", proto.StatusString(st), payload, line,
					proto.StatusString(got), gotPayload, ok)
			}
		}
	}
}
