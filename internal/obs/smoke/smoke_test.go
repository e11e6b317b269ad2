//go:build obssmoke

package smoke

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestObsSmoke is the `make obs-smoke` CI job: a full out-of-process
// round trip through the observability surface.
func TestObsSmoke(t *testing.T) {
	dir := t.TempDir()
	kvd := filepath.Join(dir, "concord-kvd")
	load := filepath.Join(dir, "concord-load")
	for bin, pkg := range map[string]string{kvd: "concord/cmd/concord-kvd", load: "concord/cmd/concord-load"} {
		if out, err := exec.Command("go", "build", "-o", bin, pkg).CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", pkg, err, out)
		}
	}

	traceJSON := filepath.Join(dir, "trace.json")
	shadowJSON := filepath.Join(dir, "shadow.json")
	srv := exec.Command(kvd,
		"-addr", "127.0.0.1:0", "-obs", "127.0.0.1:0",
		"-workers", "2", "-quantum", "200us", "-keys", "2000", "-drain", "2s",
		"-tracedump", traceJSON,
		"-shadow", "-shadow-interval", "500ms", "-shadow-rate", "4",
		"-shadowdump", shadowJSON)
	stderr, err := srv.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		srv.Process.Signal(syscall.SIGTERM)
		done := make(chan error, 1)
		go func() { done <- srv.Wait() }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			srv.Process.Kill()
			t.Error("server did not drain after SIGTERM")
			return
		}
		// The drain wrote the Chrome trace; it must be JSON Perfetto
		// accepts: an object with a non-empty traceEvents array.
		raw, err := os.ReadFile(traceJSON)
		if err != nil {
			t.Errorf("tracedump missing: %v", err)
			return
		}
		var doc struct {
			TraceEvents []map[string]any `json:"traceEvents"`
		}
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Errorf("tracedump is not valid JSON: %v", err)
			return
		}
		if len(doc.TraceEvents) < 10 {
			t.Errorf("tracedump has only %d events", len(doc.TraceEvents))
		}
		// And the shadow replayer's window history: schema 1 with at
		// least one scored window whose counterfactuals all replayed.
		shadowRaw, err := os.ReadFile(shadowJSON)
		if err != nil {
			t.Errorf("shadowdump missing: %v", err)
			return
		}
		var shdump struct {
			Schema   int      `json:"schema"`
			Policies []string `json:"policies"`
			Rate     int      `json:"capture_rate"`
			Windows  uint64   `json:"windows"`
			Results  []struct {
				Recs          int     `json:"recs"`
				AchievedP99US float64 `json:"achieved_p99_us"`
				Policies      []struct {
					Policy string `json:"policy"`
				} `json:"policies"`
				Best string `json:"best"`
			} `json:"results"`
		}
		if err := json.Unmarshal(shadowRaw, &shdump); err != nil {
			t.Errorf("shadowdump is not valid JSON: %v\n%s", err, shadowRaw)
			return
		}
		if shdump.Schema != 1 || shdump.Rate != 4 || len(shdump.Policies) != 3 {
			t.Errorf("shadowdump header = schema %d rate %d policies %v", shdump.Schema, shdump.Rate, shdump.Policies)
		}
		if shdump.Windows == 0 || len(shdump.Results) == 0 {
			t.Errorf("shadowdump scored no windows: %+v", shdump)
			return
		}
		for _, r := range shdump.Results {
			if r.Recs < 2 || r.AchievedP99US <= 0 || len(r.Policies) != 3 {
				t.Errorf("shadowdump window incomplete: %+v", r)
				break
			}
		}
	}()

	// The server logs its chosen addresses; -addr/-obs use port 0.
	kvAddr, obsAddr := parseAddrs(t, stderr)
	t.Logf("kv on %s, obs on %s", kvAddr, obsAddr)

	// Drive some traffic with breakdowns enabled; the report must show
	// the per-component table.
	loadOut, err := exec.Command(load,
		"-addr", kvAddr, "-rate", "2000", "-duration", "2s",
		"-conns", "8", "-mix", "get", "-keys", "2000", "-breakdown").CombinedOutput()
	if err != nil {
		t.Fatalf("concord-load: %v\n%s", err, loadOut)
	}
	checkLaunched(t, "text", loadOut, 2000*2)
	for _, want := range []string{
		"component breakdown", "queueing", "service", "p99.9",
		"ingress", "egress", "client-vs-server latency gap",
	} {
		if !strings.Contains(string(loadOut), want) {
			t.Fatalf("load report missing %q:\n%s", want, loadOut)
		}
	}

	// A pipelined binary phase exercises the frame decoder and the
	// batched flusher — the paths the net-phase tracing instruments.
	binOut, err := exec.Command(load,
		"-addr", kvAddr, "-rate", "2000", "-duration", "2s",
		"-conns", "4", "-proto", "binary", "-pipeline", "8",
		"-mix", "get", "-keys", "2000").CombinedOutput()
	if err != nil {
		t.Fatalf("concord-load binary: %v\n%s", err, binOut)
	}
	if !strings.Contains(string(binOut), "p99.9") {
		t.Fatalf("binary load report missing latency table:\n%s", binOut)
	}
	checkLaunched(t, "binary", binOut, 2000*2)

	// Scrape the metrics endpoint.
	body := httpGet(t, "http://"+obsAddr+"/metrics")
	for _, want := range []string{
		"concord_submitted_total", "concord_completed_total",
		"concord_queue_depth", "concord_worker_occupancy",
		`concord_request_us_bucket{op="get",component="service",le="`,
		`concord_request_us_bucket{op="get",component="ingress",le="`,
		`concord_request_us_bucket{op="get",component="egress",le="`,
		"_sum", "_count",
		// Runtime health surface and build identity.
		"concord_go_goroutines", "concord_go_heap_live_bytes",
		"concord_go_gc_cycles_total", `concord_go_gc_pause_us{quantile="0.99"}`,
		"concord_build_info",
		// Flush-batch distribution.
		`concord_net_flush_batch_quantile{quantile="p99"}`,
		// Per-class service-time sketches and hint-error histograms.
		`concord_svc_time_us{class="standard",quantile="p99"}`,
		`concord_svc_time_samples_total{class="standard"}`,
		`concord_hint_error_bucket{class="standard",le="`,
		// Shadow-replay regret surface.
		`concord_regret_p99_ratio{policy="srpt_oracle"}`,
		`concord_regret_best_policy{policy="fcfs"}`,
		"concord_regret_ratio", "concord_regret_windows_total",
		`concord_shadow_captures_total{result="kept"}`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q; got:\n%.2000s", want, body)
		}
	}
	// The completion observer kvd hands netsrv feeds the sketches and
	// the SLO: after the load both have counted requests.
	for _, series := range []string{
		`concord_svc_time_samples_total{class="standard"}`,
		`concord_slo_requests{window="short",result="total"}`,
	} {
		if v := metricValue(t, body, series); v <= 0 {
			t.Errorf("%s = %v after the load, want > 0", series, v)
		}
	}
	// pprof must be mounted on the same listener.
	if pprof := httpGet(t, "http://"+obsAddr+"/debug/pprof/cmdline"); !strings.Contains(pprof, "concord-kvd") {
		t.Fatalf("pprof cmdline = %q", pprof)
	}
	// Readiness: the server is serving, so /healthz answers ok.
	if hz := httpGet(t, "http://"+obsAddr+"/healthz"); strings.TrimSpace(hz) != "ok" {
		t.Fatalf("/healthz = %q, want ok", hz)
	}

	// Text protocol: STATS depths, OBS trailers, and TRACE timelines.
	conn, err := net.Dial("tcp", kvAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	rw := bufio.NewReadWriter(bufio.NewReader(conn), bufio.NewWriter(conn))
	ask := func(req string) string {
		fmt.Fprintf(rw, "%s\n", req)
		rw.Flush()
		resp, err := rw.ReadString('\n')
		if err != nil {
			t.Fatalf("%s: %v", req, err)
		}
		return strings.TrimSpace(resp)
	}
	if got := ask("STATS"); !strings.Contains(got, "central=") || !strings.Contains(got, "occ=") {
		t.Fatalf("STATS missing live depths: %q", got)
	}
	if got := ask("OBS ON"); got != "OK" {
		t.Fatalf("OBS ON = %q", got)
	}
	got := ask("GET key00000001")
	cut := strings.Index(got, "|OBS ")
	if cut < 0 {
		t.Fatalf("breakdown trailer missing: %q", got)
	}
	var h, q, s, p, in, eg float64
	var n, d int
	if _, err := fmt.Sscanf(got[cut:], "|OBS h=%f q=%f s=%f p=%f i=%f e=%f n=%d d=%d",
		&h, &q, &s, &p, &in, &eg, &n, &d); err != nil {
		t.Fatalf("trailer did not parse: %q: %v", got, err)
	}
	// The net phases must be live, not zero-stubbed: the frame was read
	// off a real socket and the response accrued egress before render.
	if in <= 0 || eg <= 0 {
		t.Fatalf("net-phase trailer values must be non-zero: i=%v e=%v in %q", in, eg, got)
	}
	fmt.Fprintf(rw, "TRACE 5\n")
	rw.Flush()
	var traceLines []string
	for {
		line, err := rw.ReadString('\n')
		if err != nil {
			t.Fatalf("TRACE read: %v", err)
		}
		line = strings.TrimSpace(line)
		if strings.HasPrefix(line, "END") {
			traceLines = append(traceLines, line)
			break
		}
		traceLines = append(traceLines, line)
	}
	joined := strings.Join(traceLines, "\n")
	for _, want := range []string{"REQ ", "total=", "submit", "complete", "END"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("TRACE output missing %q:\n%s", want, joined)
		}
	}

	// STATS must now carry the sketch quantiles and regret fields the
	// replayer publishes.
	if got := ask("STATS"); !strings.Contains(got, "svc_p99_us=") ||
		!strings.Contains(got, "regret_windows=") || !strings.Contains(got, "regret_best=") {
		t.Fatalf("STATS missing sketch/regret fields: %q", got)
	}

	// SHADOW streams the scored counterfactual windows. Traffic ran for
	// ~4s at a 1-in-4 capture rate with 500ms replay windows, so at
	// least one window must have scored by now.
	fmt.Fprintf(rw, "SHADOW 5\n")
	rw.Flush()
	var shadowLines []string
	for {
		line, err := rw.ReadString('\n')
		if err != nil {
			t.Fatalf("SHADOW read: %v", err)
		}
		line = strings.TrimSpace(line)
		shadowLines = append(shadowLines, line)
		if strings.HasPrefix(line, "END") || strings.HasPrefix(line, "ERR") {
			break
		}
	}
	shadowJoined := strings.Join(shadowLines, "\n")
	if len(shadowLines) < 2 {
		t.Fatalf("SHADOW returned no scored windows:\n%s", shadowJoined)
	}
	for _, want := range []string{"achieved_p99", "fcfs", "srpt_hint", "srpt_oracle", "best", "END"} {
		if !strings.Contains(shadowJoined, want) {
			t.Fatalf("SHADOW output missing %q:\n%s", want, shadowJoined)
		}
	}
}

// checkLaunched fails unless a concord-load report launched at least
// 90% of the want arrivals its -rate × -duration schedules: the
// generator offered the load it was asked for.
func checkLaunched(t *testing.T, phase string, out []byte, want int) {
	t.Helper()
	m := regexp.MustCompile(`launched (\d+)`).FindSubmatch(out)
	if m == nil {
		t.Fatalf("%s load report has no launched count:\n%s", phase, out)
	}
	if n, _ := strconv.Atoi(string(m[1])); n < want*9/10 {
		t.Fatalf("%s load launched %d of %d scheduled arrivals, want ≥ 90%%:\n%s", phase, n, want, out)
	}
}

func parseAddrs(t *testing.T, stderr io.Reader) (kvAddr, obsAddr string) {
	t.Helper()
	kvRe := regexp.MustCompile(`concord-kvd on ([^ ]+): \d+ workers`)
	obsRe := regexp.MustCompile(`metrics\+pprof\+healthz on ([^,]+),`)
	sc := bufio.NewScanner(stderr)
	deadline := time.After(10 * time.Second)
	lines := make(chan string)
	go func() {
		for sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
	}()
	// Keep draining stderr in the background after we have what we
	// need so the server never blocks on a full pipe.
	defer func() {
		go func() {
			for range lines {
			}
		}()
	}()
	for {
		select {
		case line, ok := <-lines:
			if !ok {
				t.Fatalf("server exited before logging addresses (kv=%q obs=%q)", kvAddr, obsAddr)
			}
			if m := kvRe.FindStringSubmatch(line); m != nil {
				kvAddr = m[1]
			}
			if m := obsRe.FindStringSubmatch(line); m != nil {
				obsAddr = m[1]
			}
			if kvAddr != "" && obsAddr != "" {
				return kvAddr, obsAddr
			}
		case <-deadline:
			t.Fatalf("timed out waiting for server addresses (kv=%q obs=%q)", kvAddr, obsAddr)
		}
	}
}

// metricValue reads one series' value from an exposition.
func metricValue(t *testing.T, body, series string) float64 {
	t.Helper()
	for _, ln := range strings.Split(body, "\n") {
		if v, ok := strings.CutPrefix(ln, series+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("%s: %v", series, err)
			}
			return f
		}
	}
	t.Fatalf("/metrics has no series %s", series)
	return 0
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
