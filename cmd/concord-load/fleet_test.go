package main

import (
	"math/rand"
	"net"
	"testing"

	"concord/internal/kv"
	"concord/internal/live"
	"concord/internal/netsrv"
)

// serveKV runs a KV store on the live runtime behind netsrv on a
// loopback listener, as concord-kvd does.
func serveKV(t *testing.T) (*live.Server, *netsrv.Server, string) {
	t.Helper()
	rt := live.New(&netsrv.KVHandler{Store: kv.New()}, live.Options{Workers: 2})
	rt.Start()
	ns := netsrv.New(rt, netsrv.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go ns.Serve(ln)
	t.Cleanup(func() {
		ln.Close()
		rt.Stop()
		ns.Drain(0)
	})
	return rt, ns, ln.Addr().String()
}

func dialFleet(t *testing.T, addr string, conns, window int, binary bool) *fleet {
	t.Helper()
	fl := &fleet{lg: NewLog(0)}
	t.Cleanup(fl.close) // before the server's cleanup: cleanups run last-in first-out
	if err := fl.dial(addr, conns, window, binary, false); err != nil {
		t.Fatal(err)
	}
	return fl
}

// checkIdentity: every launched request was answered or retired, once.
func checkIdentity(t *testing.T, fl *fleet, launched int) (completed, failed int) {
	t.Helper()
	completed, failed = len(fl.lg.Snapshot()), int(fl.fails.total())
	if completed+failed != launched {
		t.Fatalf("completed %d + failed %d != launched %d", completed, failed, launched)
	}
	return completed, failed
}

// TestFleetAccountsEveryRequest drives both protocols through the one
// connection loop against an in-process server. A healthy server fails
// nothing; a runtime stopped mid-run fails the rest as STOPPED, and
// drain still returns.
func TestFleetAccountsEveryRequest(t *testing.T) {
	const n = 400
	gen, err := mixFor("zippy", 1000)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range []struct {
		name   string
		binary bool
		window int
		stop   bool
	}{
		{"text/window1", false, 1, false},
		{"binary/window4", true, 4, false},
		{"text/window1/stop", false, 1, true},
		{"binary/window4/stop", true, 4, true},
	} {
		t.Run(row.name, func(t *testing.T) {
			rt, _, addr := serveKV(t)
			fl := dialFleet(t, addr, 2, row.window, row.binary)
			rng := rand.New(rand.NewSource(1))
			for i := 0; i < n; i++ {
				if row.stop && i == n/2 {
					rt.Stop()
				}
				if err := fl.launch(gen(rng)); err != nil {
					t.Fatalf("launch %d: %v", i, err)
				}
			}
			fl.drain()
			_, failed := checkIdentity(t, fl, n)
			stopped := int(fl.fails.stopped.Load())
			switch {
			case !row.stop && failed != 0:
				t.Fatalf("healthy server: %d failures", failed)
			case row.stop && (stopped < n/2 || stopped != failed):
				t.Fatalf("stopped mid-run: %d failures, %d of them STOPPED; want ≥ %d, all STOPPED", failed, stopped, n/2)
			}
		})
	}
}

// TestBrokenConnectionRetiresSlots: once the server closes every
// connection, requests in flight fail, each dead slot is retired
// instead of being lent again, and launch reports that no connection is
// left rather than failing every later request.
func TestBrokenConnectionRetiresSlots(t *testing.T) {
	const conns, n = 2, 50
	for _, row := range []struct {
		name   string
		binary bool
		window int
	}{
		{"text/window1", false, 1},
		{"binary/window4", true, 4},
	} {
		t.Run(row.name, func(t *testing.T) {
			_, ns, addr := serveKV(t)
			fl := dialFleet(t, addr, conns, row.window, row.binary)
			gen, _ := mixFor("get", 1000)
			rng := rand.New(rand.NewSource(1))
			launched := 0
			for ; launched < n; launched++ {
				if err := fl.launch(gen(rng)); err != nil {
					t.Fatalf("launch %d: %v", launched, err)
				}
			}
			fl.drain()
			ns.Drain(0) // closes every server-side connection
			var err error
			for i := 0; err == nil && i < 100; i++ {
				if err = fl.launch(gen(rng)); err == nil {
					launched++
				}
			}
			if err == nil {
				t.Fatal("launch kept succeeding on closed connections")
			}
			fl.drain()
			completed, failed := checkIdentity(t, fl, launched)
			if completed != n || failed > conns*row.window {
				t.Fatalf("completed %d, failed %d: want %d completed and at most one failure per slot (%d)",
					completed, failed, n, conns*row.window)
			}
		})
	}
}
