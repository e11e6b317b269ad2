package proto

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// chunkReader yields at most n bytes per Read, forcing torn frames.
type chunkReader struct {
	r io.Reader
	n int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(p) > c.n {
		p = p[:c.n]
	}
	return c.r.Read(p)
}

func encodeMix(t *testing.T) ([]byte, []Frame) {
	t.Helper()
	want := []Frame{
		{Op: OpGet, ID: 1, Key: []byte("key1"), Val: []byte{}},
		{Op: OpPut, ID: 7, Key: []byte("key2"), Val: bytes.Repeat([]byte("v"), 300)},
		{Op: OpDel, ID: 2, Key: []byte("a"), Val: []byte{}},
		{Op: OpScan, ID: 99, Key: []byte{}, Val: []byte{}},
	}
	var wire []byte
	for _, f := range want {
		wire = AppendRequest(wire, f.Op, f.ID, f.Key, f.Val)
	}
	wire = AppendSpinRequest(wire, 42, 250)
	return wire, want
}

func TestFrameRoundTrip(t *testing.T) {
	wire, want := encodeMix(t)
	fr := NewFrameReader(bytes.NewReader(wire), NewPool(4096), 1<<20)
	for i, w := range want {
		f, err := fr.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if f.Op != w.Op || f.ID != w.ID || !bytes.Equal(f.Key, w.Key) || !bytes.Equal(f.Val, w.Val) {
			t.Fatalf("frame %d = {%d %d %q %q}, want {%d %d %q %q}",
				i, f.Op, f.ID, f.Key, f.Val, w.Op, w.ID, w.Key, w.Val)
		}
		f.Release()
	}
	f, err := fr.Next()
	if err != nil {
		t.Fatalf("spin frame: %v", err)
	}
	if us, ok := DecodeSpin(f.Key); !ok || us != 250 {
		t.Fatalf("DecodeSpin = %d,%v want 250,true", us, ok)
	}
	f.Release()
	if _, err := fr.Next(); err != io.EOF {
		t.Fatalf("at end: err = %v, want io.EOF", err)
	}
	fr.Close()
}

// TestTornFrames drips the stream one byte at a time through a tiny
// pool so every frame is torn across reads and buffer rolls, and the
// decoded frames must still come out intact.
func TestTornFrames(t *testing.T) {
	wire, want := encodeMix(t)
	for _, chunk := range []int{1, 2, 3, 7} {
		fr := NewFrameReader(&chunkReader{r: bytes.NewReader(wire), n: chunk}, NewPool(512), 1<<20)
		var got []Frame
		for {
			f, err := fr.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("chunk %d: %v", chunk, err)
			}
			// Copy out before Release: the point of the test is that the
			// slices were valid while held.
			got = append(got, Frame{Op: f.Op, ID: f.ID,
				Key: append([]byte(nil), f.Key...), Val: append([]byte(nil), f.Val...)})
			f.Release()
		}
		if len(got) != len(want)+1 {
			t.Fatalf("chunk %d: decoded %d frames, want %d", chunk, len(got), len(want)+1)
		}
		for i, w := range want {
			f := got[i]
			if f.Op != w.Op || f.ID != w.ID || !bytes.Equal(f.Key, w.Key) || !bytes.Equal(f.Val, w.Val) {
				t.Fatalf("chunk %d frame %d mismatch", chunk, i)
			}
		}
		fr.Close()
	}
}

// TestHeldFramesSurviveRoll: frames cut from a buffer stay valid after
// the reader rolls to the next buffer, until each frame is Released.
func TestHeldFramesSurviveRoll(t *testing.T) {
	var wire []byte
	const n = 64
	for i := uint64(0); i < n; i++ {
		wire = AppendRequest(wire, OpPut, i, []byte{byte('a' + i%26)}, bytes.Repeat([]byte{byte(i)}, 40))
	}
	fr := NewFrameReader(bytes.NewReader(wire), NewPool(512), 1<<20) // ~8 frames per buffer
	var held []Frame
	for {
		f, err := fr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, f)
	}
	if len(held) != n {
		t.Fatalf("decoded %d frames, want %d", len(held), n)
	}
	for i, f := range held {
		if f.ID != uint64(i) || len(f.Val) != 40 || f.Val[0] != byte(i) {
			t.Fatalf("held frame %d corrupted after roll: id=%d val[0]=%d", i, f.ID, f.Val[0])
		}
		f.Release()
	}
	fr.Close()
}

func TestBadMagicDesync(t *testing.T) {
	wire := []byte{0x47, 0x45, 0x54} // "GET" — text on a binary reader
	fr := NewFrameReader(bytes.NewReader(append(wire, make([]byte, 32)...)), NewPool(512), 1<<20)
	if _, err := fr.Next(); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
	fr.Close()
}

// TestTooLargeSkips: an oversized frame reports its id and is skipped;
// the next frame on the stream decodes normally.
func TestTooLargeSkips(t *testing.T) {
	var wire []byte
	big := bytes.Repeat([]byte("x"), 5000)
	wire = AppendRequest(wire, OpPut, 11, []byte("k"), big)
	wire = AppendRequest(wire, OpGet, 12, []byte("after"), nil)
	for _, chunk := range []int{4096, 3} {
		fr := NewFrameReader(&chunkReader{r: bytes.NewReader(wire), n: chunk}, NewPool(1024), 4096)
		_, err := fr.Next()
		var tl *TooLargeError
		if !errors.As(err, &tl) {
			t.Fatalf("chunk %d: err = %v, want TooLargeError", chunk, err)
		}
		if tl.ID != 11 || tl.Size != 5001 || tl.Max != 4096 {
			t.Fatalf("chunk %d: TooLargeError = %+v", chunk, tl)
		}
		f, err := fr.Next()
		if err != nil || f.Op != OpGet || f.ID != 12 || string(f.Key) != "after" {
			t.Fatalf("chunk %d: frame after oversize = %+v, %v", chunk, f, err)
		}
		f.Release()
		if _, err := fr.Next(); err != io.EOF {
			t.Fatalf("chunk %d: err = %v, want io.EOF", chunk, err)
		}
		fr.Close()
	}
}

// TestOversizedLegalFrame: a frame bigger than the pool's buffer but
// under the limit decodes via a one-off buffer.
func TestOversizedLegalFrame(t *testing.T) {
	val := bytes.Repeat([]byte("y"), 3000)
	wire := AppendRequest(nil, OpPut, 5, []byte("k"), val)
	wire = AppendRequest(wire, OpGet, 6, []byte("next"), nil)
	fr := NewFrameReader(bytes.NewReader(wire), NewPool(512), 1<<20)
	f, err := fr.Next()
	if err != nil || !bytes.Equal(f.Val, val) {
		t.Fatalf("oversized legal frame: %v (val %d bytes)", err, len(f.Val))
	}
	f.Release()
	f, err = fr.Next()
	if err != nil || f.ID != 6 {
		t.Fatalf("frame after oversized: %+v, %v", f, err)
	}
	f.Release()
	fr.Close()
}

func TestMidFrameEOF(t *testing.T) {
	wire := AppendRequest(nil, OpPut, 1, []byte("key"), []byte("value"))
	for _, cut := range []int{1, ReqHeaderSize - 1, ReqHeaderSize, ReqHeaderSize + 2} {
		fr := NewFrameReader(bytes.NewReader(wire[:cut]), NewPool(512), 1<<20)
		if _, err := fr.Next(); err != io.ErrUnexpectedEOF {
			t.Fatalf("cut %d: err = %v, want io.ErrUnexpectedEOF", cut, err)
		}
		fr.Close()
	}
}

func TestPrime(t *testing.T) {
	wire := AppendRequest(nil, OpGet, 3, []byte("k"), nil)
	fr := NewFrameReader(bytes.NewReader(wire[1:]), NewPool(512), 1<<20)
	fr.Prime(wire[:1]) // the auto-detection byte was already consumed
	f, err := fr.Next()
	if err != nil || f.ID != 3 || string(f.Key) != "k" {
		t.Fatalf("primed frame = %+v, %v", f, err)
	}
	f.Release()
	fr.Close()
}

// TestBuffered: Ready reports a frame buffered whole, and only that. A
// frame that arrived alone leaves nothing ready; one that arrived in the
// same read as the next leaves that next frame ready (v1 or v2 header);
// a frame cut anywhere, or one over the size limit, is not ready.
func TestBuffered(t *testing.T) {
	first := AppendRequest(nil, OpGet, 1, []byte("k"), nil)
	second := AppendClassRequest(nil, OpPut, 2, 2, []byte("k"), []byte("v"))

	alone := NewFrameReader(&chunkReader{r: bytes.NewReader(append(first, second...)), n: len(first)}, NewPool(512), 1<<20)
	if alone.Ready() {
		t.Fatal("Ready before anything was read")
	}
	f, err := alone.Next()
	if err != nil {
		t.Fatal(err)
	}
	if alone.Ready() {
		t.Fatal("after a frame read on its own: Ready")
	}
	f.Release()
	alone.Close()

	for cut := 0; cut <= len(second); cut++ {
		wire := append(append([]byte(nil), first...), second[:cut]...)
		fr := NewFrameReader(bytes.NewReader(wire), NewPool(512), 1<<20)
		f, err := fr.Next()
		if err != nil {
			t.Fatal(err)
		}
		if want := cut == len(second); fr.Ready() != want {
			t.Fatalf("second frame buffered to byte %d of %d: Ready = %v, want %v", cut, len(second), !want, want)
		}
		f.Release()
		fr.Close()
	}

	big := append(append([]byte(nil), first...), AppendRequest(nil, OpPut, 3, []byte("k"), make([]byte, 64))...)
	small := NewFrameReader(bytes.NewReader(big), NewPool(512), 32)
	f, err = small.Next()
	if err != nil {
		t.Fatal(err)
	}
	if small.Ready() {
		t.Fatal("a frame over the size limit reported ready")
	}
	f.Release()
	small.Close()
}

func TestBufferRefCounting(t *testing.T) {
	p := NewPool(512)
	b := p.Get()
	b.Retain()
	b.Release()
	b.Release() // back to pool
	if got := p.Get(); got != b {
		// Not a strict guarantee of sync.Pool, but on a single goroutine
		// with no GC in between, a put buffer comes straight back.
		t.Skip("pool did not recycle; sync.Pool behavior")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("over-release did not panic")
		}
	}()
	b.Release()
	b.Release()
}

func TestRespRoundTrip(t *testing.T) {
	var wire []byte
	wire = AppendResponse(wire, StValue, 9, []byte("hello"))
	wire = AppendCountResponse(wire, 10, 15000)
	wire = AppendResponse(wire, StNotFound, 11, nil)
	rr := NewRespReader(&chunkReader{r: bytes.NewReader(wire), n: 2}, 0)
	r, err := rr.Next()
	if err != nil || r.Status != StValue || r.ID != 9 || string(r.Payload) != "hello" {
		t.Fatalf("resp 1 = %+v, %v", r, err)
	}
	r, err = rr.Next()
	if err != nil || r.Status != StCount {
		t.Fatalf("resp 2 = %+v, %v", r, err)
	}
	if n, ok := DecodeCount(r.Payload); !ok || n != 15000 {
		t.Fatalf("DecodeCount = %d,%v", n, ok)
	}
	r, err = rr.Next()
	if err != nil || r.Status != StNotFound || r.ID != 11 || len(r.Payload) != 0 {
		t.Fatalf("resp 3 = %+v, %v", r, err)
	}
	if _, err := rr.Next(); err != io.EOF {
		t.Fatalf("at end: %v, want io.EOF", err)
	}
}

// TestRespReaderZeroAllocs pins the client's decode path: once the
// payload buffer has grown to the largest payload, Next allocates
// nothing — not the header, not the payload.
func TestRespReaderZeroAllocs(t *testing.T) {
	const runs = 200
	var wire []byte
	wire = AppendResponse(wire, StValue, 0, make([]byte, 64)) // grows the buffer in the warm-up run
	for i := 1; i <= runs; i++ {
		wire = AppendResponse(wire, StValue, uint64(i), make([]byte, i%64))
	}
	rr := NewRespReader(bytes.NewReader(wire), 0)
	allocs := testing.AllocsPerRun(runs, func() {
		if _, err := rr.Next(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("RespReader.Next: %v allocs per response, want 0", allocs)
	}
}

func TestRespMidFrameEOF(t *testing.T) {
	wire := AppendResponse(nil, StOK, 1, []byte("p"))
	for _, cut := range []int{2, RespHeaderSize, RespHeaderSize - 1} {
		rr := NewRespReader(bytes.NewReader(wire[:cut]), 0)
		if _, err := rr.Next(); err != io.ErrUnexpectedEOF {
			t.Fatalf("cut %d: err = %v, want io.ErrUnexpectedEOF", cut, err)
		}
	}
	rr := NewRespReader(bytes.NewReader(wire[:0]), 0)
	if _, err := rr.Next(); err != io.EOF {
		t.Fatal("clean boundary should be io.EOF")
	}
}

func TestStatusAndOpStrings(t *testing.T) {
	if StatusString(StDeadline) != "DEADLINE" || StatusString(StOverloaded) != "OVERLOADED" ||
		StatusString(StStopped) != "STOPPED" || StatusString(StTooLarge) != "TOOLARGE" {
		t.Fatal("status tokens must match the text protocol's failure tokens")
	}
	if OpString(OpGet) != "GET" || OpString(OpSpin) != "SPIN" {
		t.Fatal("op names drifted")
	}
}

// TestClassFrameRoundTrip: v2 frames carry the class byte end to end,
// class 0 canonicalizes to a v1 frame on the wire, and v1/v2 frames
// interleave on one stream — all surviving torn reads.
func TestClassFrameRoundTrip(t *testing.T) {
	want := []Frame{
		{Op: OpGet, Class: 1, ID: 1, Key: []byte("crit"), Val: []byte{}},
		{Op: OpPut, Class: 0, ID: 2, Key: []byte("std"), Val: []byte("v")},
		{Op: OpScan, Class: 2, ID: 3, Key: []byte{}, Val: []byte{}},
		{Op: OpGet, Class: 0, ID: 4, Key: []byte("v1"), Val: []byte{}},
	}
	var wire []byte
	for _, f := range want {
		at := len(wire)
		if f.ID == 4 {
			// A v1 writer on the same stream.
			wire = AppendRequest(wire, f.Op, f.ID, f.Key, f.Val)
		} else {
			wire = AppendClassRequest(wire, f.Op, f.Class, f.ID, f.Key, f.Val)
		}
		wantMagic := byte(ReqMagicV2)
		if f.Class == 0 {
			// Canonicalization: standard never pays the v2 byte.
			wantMagic = ReqMagic
		}
		if wire[at] != wantMagic {
			t.Fatalf("frame id %d class %d: magic 0x%02X, want 0x%02X",
				f.ID, f.Class, wire[at], wantMagic)
		}
	}
	wire = AppendSpinClassRequest(wire, 2, 5, 250)

	fr := NewFrameReader(&chunkReader{r: bytes.NewReader(wire), n: 1}, NewPool(8), 1<<20)
	for i, w := range want {
		f, err := fr.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if f.Op != w.Op || f.Class != w.Class || f.ID != w.ID ||
			!bytes.Equal(f.Key, w.Key) || !bytes.Equal(f.Val, w.Val) {
			t.Fatalf("frame %d = {op %d class %d id %d %q %q}, want {op %d class %d id %d %q %q}",
				i, f.Op, f.Class, f.ID, f.Key, f.Val, w.Op, w.Class, w.ID, w.Key, w.Val)
		}
		f.Release()
	}
	f, err := fr.Next()
	if err != nil {
		t.Fatalf("classed spin frame: %v", err)
	}
	if us, ok := DecodeSpin(f.Key); !ok || us != 250 || f.Class != 2 {
		t.Fatalf("classed spin = %d,%v class %d, want 250,true class 2", us, ok, f.Class)
	}
	f.Release()
	if _, err := fr.Next(); err != io.EOF {
		t.Fatalf("at end: err = %v, want io.EOF", err)
	}
	fr.Close()
}
