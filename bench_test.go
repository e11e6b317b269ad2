package concord

import (
	"math"
	"testing"

	"concord/internal/cost"
	"concord/internal/dist"
	"concord/internal/figures"
	"concord/internal/runner"
	"concord/internal/server"
	"concord/internal/workload"
)

// Each benchmark regenerates one of the paper's tables or figures at
// reduced fidelity (fewer requests and load points than the
// paper-fidelity `concordsim -fig <id>` runs, so the suite finishes in
// minutes). The reported metric is wall time to regenerate the figure;
// b.ReportMetric attaches the figure's headline number where one exists.

// benchOpts returns low-fidelity options sized for benchmarking.
func benchOpts() figures.Options {
	return figures.Options{Requests: 12000, LoadPoints: 5, Seed: 1}
}

// runFigure regenerates figure id b.N times and sanity-checks the shape.
func runFigure(b *testing.B, id string) figures.Table {
	b.Helper()
	gen := figures.All()[id]
	if gen == nil {
		b.Fatalf("unknown figure %q", id)
	}
	var t figures.Table
	for i := 0; i < b.N; i++ {
		t = gen(benchOpts())
	}
	if len(t.Rows) == 0 {
		b.Fatalf("%s produced no rows", id)
	}
	return t
}

func BenchmarkFig02PreemptionMechanisms(b *testing.B) {
	t := runFigure(b, "fig2")
	// Headline: IPI/Concord overhead ratio at a 2µs quantum.
	ipi, cc := t.Column("ipi_pct"), t.Column("concord_pct")
	b.ReportMetric(t.Rows[1][ipi]/t.Rows[1][cc], "ipi/concord@2us")
}

func BenchmarkFig03WorkerIdleJBSQ(b *testing.B) {
	t := runFigure(b, "fig3")
	sq, jb := t.Column("shinjuku_sq_pct"), t.Column("concord_jbsq2_pct")
	b.ReportMetric(t.Rows[1][sq]/math.Max(t.Rows[1][jb], 1e-9), "sq/jbsq@5us")
}

func BenchmarkFig05PreemptionVariance(b *testing.B) {
	t := runFigure(b, "fig5")
	np, pr := t.Column("no_preempt"), t.Column("precise_N5_0")
	last := t.Rows[len(t.Rows)-1]
	b.ReportMetric(last[np]/math.Max(last[pr], 1e-9), "nopreempt/precise@hiload")
}

func BenchmarkFig06BimodalYCSB(b *testing.B)     { runFigure(b, "fig6") }
func BenchmarkFig07BimodalUSR(b *testing.B)      { runFigure(b, "fig7") }
func BenchmarkFig08aFixedOne(b *testing.B)       { runFigure(b, "fig8a") }
func BenchmarkFig08bTPCC(b *testing.B)           { runFigure(b, "fig8b") }
func BenchmarkFig09LevelDB5050(b *testing.B)     { runFigure(b, "fig9") }
func BenchmarkFig10ZippyDB(b *testing.B)         { runFigure(b, "fig10") }
func BenchmarkFig11MechanismLadder(b *testing.B) { runFigure(b, "fig11") }

func BenchmarkFig12PreemptionOverheadBreakdown(b *testing.B) {
	t := runFigure(b, "fig12")
	sh, cc := t.Column("shinjuku_ipi_sq_pct"), t.Column("concord_coop_jbsq_pct")
	var row []float64
	for _, r := range t.Rows {
		if r[0] == 5 {
			row = r
		}
	}
	b.ReportMetric(row[sh]/row[cc], "shinjuku/concord@5us")
}

func BenchmarkFig13SmallVMDispatcher(b *testing.B) { runFigure(b, "fig13") }
func BenchmarkFig14LowLoadZoom(b *testing.B)       { runFigure(b, "fig14") }

func BenchmarkFig15UIPI(b *testing.B) {
	t := runFigure(b, "fig15")
	ui, cc := t.Column("uipi_pct"), t.Column("concord_pct")
	b.ReportMetric(t.Rows[1][ui]/t.Rows[1][cc], "uipi/concord@2us")
}

func BenchmarkTable1Instrumentation(b *testing.B) {
	t := runFigure(b, "table1")
	avg := t.Rows[24]
	ci, cc := t.Column("ci_overhead_pct"), t.Column("concord_overhead_pct")
	b.ReportMetric(avg[ci]/math.Max(avg[cc], 0.01), "ci/concord-avg")
}

// Ablation benches for the design choices DESIGN.md calls out.

func BenchmarkAblationJBSQDepth(b *testing.B)  { runFigure(b, "ablation-jbsq-depth") }
func BenchmarkAblationPolicySRPT(b *testing.B) { runFigure(b, "ablation-policy") }
func BenchmarkAblationDeferWhole(b *testing.B) { runFigure(b, "ablation-defer") }

func BenchmarkAblationLogicalQueue(b *testing.B) { runFigure(b, "ablation-logical") }

// BenchmarkAblationDispatcherWork measures the work-conserving
// dispatcher's contribution across core counts (the §2.2.3 small-VM
// argument): fraction of requests the dispatcher completes at fixed
// load with 2 vs 8 workers.
func BenchmarkAblationDispatcherWork(b *testing.B) {
	m := cost.Default()
	wl := workload.LevelDB5050().WL
	var stolen2, stolen8 float64
	for i := 0; i < b.N; i++ {
		p := server.RunParams{Requests: 8000, Seed: uint64(i + 1), MaxCentralQueue: 100000, DrainSlackUS: 50000}
		pt2 := server.RunAt(server.Concord(m, 2, 5), wl, 6, p)
		pt8 := server.RunAt(server.Concord(m, 8, 5), wl, 6, p)
		stolen2, stolen8 = pt2.StolenFrac, pt8.StolenFrac
	}
	b.ReportMetric(100*stolen2, "stolen%-2workers")
	b.ReportMetric(100*stolen8, "stolen%-8workers")
}

// BenchmarkAblationReplication measures the §6 scaling escape hatch:
// splitting one saturated single-dispatcher instance into two relieves
// the dispatcher bottleneck on Fixed(1µs) (compare the p999 metrics).
func BenchmarkAblationReplication(b *testing.B) {
	m := cost.Default()
	cfg := server.Concord(m, 8, 0)
	cfg.Mech = nil
	cfg.WorkConserving = false
	wl := server.Workload{Dist: dist.NewFixed(1)}
	var one, two float64
	for i := 0; i < b.N; i++ {
		p := server.RunParams{Requests: 40000, Seed: uint64(i + 1), MaxCentralQueue: 60000, DrainSlackUS: 20000}
		one = server.RunReplicated(cfg, wl, 5000, 1, p).P999
		two = server.RunReplicated(cfg, wl, 5000, 2, p).P999
	}
	if math.IsInf(one, 1) {
		one = 1e6 // render saturated as a large finite metric
	}
	b.ReportMetric(one, "p999-1dispatcher")
	b.ReportMetric(two, "p999-2dispatchers")
}

// sweepBench holds the fixed grid both sweep benchmarks run: one system
// across 8 load points on the YCSB bimodal workload, 8000 requests per
// point. Serial and parallel produce identical curves (see
// internal/runner); only wall time differs.
func sweepBench(b *testing.B, parallel int) {
	m := cost.Default()
	cfg := server.Concord(m, 14, 5)
	wl := server.Workload{Dist: dist.Bimodal(50, 1, 50, 100)}
	loads := []float64{40, 80, 120, 160, 200, 240, 280, 320}
	p := server.RunParams{Requests: 8000, Seed: 1, MaxCentralQueue: 150000, DrainSlackUS: 50000}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if parallel == 1 {
			server.Sweep(cfg, wl, loads, p)
		} else {
			runner.New(parallel).Sweeps([]server.Config{cfg}, wl, loads, p)
		}
	}
	b.ReportMetric(float64(len(loads)*b.N)/b.Elapsed().Seconds(), "runs/s")
}

func BenchmarkSweepSerial(b *testing.B) { sweepBench(b, 1) }

// BenchmarkSweepParallel uses one worker per load point; speedup over
// BenchmarkSweepSerial tracks available cores (≈1× on a 1-core host).
func BenchmarkSweepParallel(b *testing.B) { sweepBench(b, 8) }

// BenchmarkSimulatorThroughput measures raw simulator speed: simulated
// requests per second of wall time on the USR bimodal workload.
func BenchmarkSimulatorThroughput(b *testing.B) {
	m := cost.Default()
	cfg := server.Concord(m, 14, 5)
	wl := server.Workload{Dist: dist.Bimodal(99.5, 0.5, 0.5, 500)}
	const n = 20000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := server.RunParams{Requests: n, Seed: uint64(i + 1), MaxCentralQueue: 100000}
		server.RunAt(cfg, wl, 1500, p)
	}
	b.ReportMetric(float64(n*b.N)/b.Elapsed().Seconds(), "sim-req/s")
}

// BenchmarkAblationCacheReload quantifies the cost the default model
// omits: cold-cache refill when a preempted request resumes. On TPCC it
// is the difference between Concord edging Persephone-FCFS (reload 0)
// and trailing it slightly, as the paper observes.
func BenchmarkAblationCacheReload(b *testing.B) {
	wl := server.Workload{Dist: dist.TPCC()}
	var p999Cold, p999Warm float64
	for i := 0; i < b.N; i++ {
		p := server.RunParams{Requests: 30000, Seed: uint64(i + 1), MaxCentralQueue: 150000}
		warm := cost.Default()
		cold := cost.Default()
		cold.PreemptCacheReload = 2000 // ≈1µs of refill per resume
		p999Warm = server.RunAt(server.Concord(warm, 14, 10), wl, 650, p).P999
		p999Cold = server.RunAt(server.Concord(cold, 14, 10), wl, 650, p).P999
	}
	b.ReportMetric(p999Warm, "p999-no-reload")
	b.ReportMetric(p999Cold, "p999-2k-reload")
}
