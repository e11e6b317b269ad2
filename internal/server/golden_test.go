package server

import (
	"fmt"
	"math"
	"testing"

	"concord/internal/cost"
	"concord/internal/dist"
	"concord/internal/mech"
	"concord/internal/stats"
)

// levelDB5050 has the shape of kvsim.Mixed5050 (which imports this
// package): 0.6 µs GETs that hold a lock for 40 % of their service time
// and 500 µs SCANs that hold none.
func levelDB5050() Workload {
	return Workload{
		Dist: dist.NewMixture("LevelDB(50%GET,50%SCAN)",
			dist.Class{Name: "GET", Weight: 50, Dist: dist.NewFixed(0.6)},
			dist.Class{Name: "SCAN", Weight: 50, Dist: dist.NewFixed(500)},
		),
		CritFracByClass: map[string]float64{"GET": 0.4},
	}
}

// goldenCase is one simulated point and the number of events the engine
// fired to compute it. The table reaches every scheduling path of the
// machine: the synchronous single queue and JBSQ, dispatcher signals
// (posted, Linux and user IPIs, the cache line) and self-preemption, the
// work-conserving steal with a parked request, critical sections
// deferring a yield or a whole request, both SRPT keys, the resume
// refill, both ways a run is cut short (queue cap, drain watchdog), and
// replication.
type goldenCase struct {
	name   string
	run    func() (stats.Point, uint64)
	want   string
	events uint64
}

func goldenCases() []goldenCase {
	m := cost.Default()
	ycsb := Workload{Dist: dist.Bimodal(50, 1, 50, 100)}
	// runAt is RunAt, keeping the machine to read its engine's count.
	runAt := func(cfg Config, wl Workload, kRps float64, p RunParams) (stats.Point, uint64) {
		wl.Arrival = poissonAt(kRps)
		m := New(cfg, wl, p)
		pt := m.Run().Point
		pt.OfferedKRps = kRps
		return pt, m.eng.Executed
	}
	at := func(cfg Config, wl Workload, kRps float64, p RunParams) func() (stats.Point, uint64) {
		return func() (stats.Point, uint64) { return runAt(cfg, wl, kRps, p) }
	}
	// replicated is RunReplicated's point, and the events of its replicas
	// built as it builds them.
	replicated := func(cfg Config, wl Workload, kRps float64, replicas int, p RunParams) func() (stats.Point, uint64) {
		return func() (stats.Point, uint64) {
			sub, rp, events := cfg, p.withDefaults(), uint64(0)
			sub.Workers /= replicas
			rp.Requests /= replicas
			rp.ExactSamples = true
			for r := 0; r < replicas; r++ {
				one := rp
				one.Seed = rp.Seed*31 + uint64(r) + 1
				_, n := runAt(sub, wl, kRps/float64(replicas), one)
				events += n
			}
			return RunReplicated(cfg, wl, kRps, replicas, p), events
		}
	}
	p := RunParams{Requests: 5000, Seed: 1}
	smallVM := RunParams{Requests: 5000, Seed: 1, MaxCentralQueue: 150000, DrainSlackUS: 50_000}
	with := func(cfg Config, edit func(*Config)) Config {
		edit(&cfg)
		return cfg
	}
	cold := m
	cold.PreemptCacheReload = 2000
	heavyTail := dist.Lognormal{Mu: math.Log(20), Sigma: 1.5}

	return []goldenCase{
		{name: "Persephone@60", events: 29999, run: at(PersephoneFCFS(m, 14), ycsb, 60, p),
			want: "{60 0.06119005777577493 1.5895 1.5895 1.8095 1.3017431711110676 4500 0.01728603834651198 0.7761961267717925 0 0}"},
		{name: "Persephone@180", events: 29999, run: at(PersephoneFCFS(m, 14), ycsb, 180, p),
			want: "{180 0.18311433164459193 1.5895 22.172 39.157 1.9429844399999598 4500 0.05172934090376811 0.33025563048448675 0 0}"},
		{name: "Persephone@300", events: 29999, run: at(PersephoneFCFS(m, 14), ycsb, 300, p),
			want: "{300 0.2701673000198681 419.538 2030.77 2096.174 687.8778533244441 4500 0.07632158683736269 0.011857638938339155 0 0}"},
		{name: "Shinjuku@60", events: 647251, run: at(Shinjuku(m, 14, 2), ycsb, 60, p),
			want: "{60 0.061165278810179725 1.5595 2.581 3.097 1.5653210488889022 4500 0.6353740594431582 0.70498623048991 0 20.017}"},
		{name: "Shinjuku@180", events: 423485, run: at(Shinjuku(m, 14, 2), ycsb, 180, p),
			want: "{180 0.1664368312724154 53.291945 230.337 231.666 97.60687653999999 4500 0.9983800703212256 0.2831732898559117 0 11.151}"},
		{name: "Shinjuku@300", events: 423794, run: at(Shinjuku(m, 14, 2), ycsb, 300, p),
			want: "{300 0.16650755482240429 178.399165 964.915 972.4455 362.0866717811119 4500 0.9990001221332915 0.2827589264729874 0 11.1622}"},
		{name: "Concord@60", events: 719566, run: at(Concord(m, 14, 2), ycsb, 60, p),
			want: "{60 0.059475104369589527 1.232945 1.7825 1.9205 1.3916033355556003 4500 0.30183814709166323 0.7510075728409913 0 22.0992}"},
		{name: "Concord@180", events: 705348, run: at(Concord(m, 14, 2), ycsb, 180, p),
			want: "{180 0.17961614664379508 1.5825 4.613 5.221 1.7993521855555712 4500 0.8413413396153003 0.262490669775114 0 20.296}"},
		{name: "Concord@300", events: 535681, run: at(Concord(m, 14, 2), ycsb, 300, p),
			want: "{300 0.25045244233708197 46.284735 154.9785 157.4505 63.09139632111119 4500 0.9980500524196961 0.0034132875324988875 0.0002 16.9474}"},
		{name: "CoopSQ@180", events: 718971, run: at(CoopSQ(m, 14, 2), ycsb, 180, p),
			want: "{180 0.17837991543471998 1.57 4.5315 5.853 1.717880498888877 4500 0.799465334744271 0.27460651231790656 0 20.609}"},
		{name: "SmallVM-steal@5", events: 1478317, run: at(Concord(m, 2, 5), levelDB5050(), 5, smallVM),
			want: "{5 0.00507117531218831 1.9608333333333334 21.278333333333332 36.02166666666667 3.237178157259211 4500 0.17563782368988096 0.3624496538215674 0.0706 44.2404}"},
		{name: "SmallVM-nosteal@5", events: 1483720, run: at(ConcordNoSteal(m, 2, 5), levelDB5050(), 5, smallVM),
			want: "{5 0.004964383568721822 1.9608333333333334 42.92666666666667 65.92416666666666 5.099246846296353 4500 0.05362246146823323 0.3259025249452046 0 48.4358}"},
		{name: "SRPT@25", events: 79200, run: at(with(Concord(m, 2, 100), func(c *Config) { c.SRPT = true }),
			Workload{Dist: heavyTail}, 25, p),
			want: "{25 0.025275598682759144 1.345787641691816 50.79680511182109 156.09246575342465 4.2414673045062194 4500 0.25594559803484446 0.3486917446169079 0.091 0.2668}"},
		{name: "HintedSRPT@25", events: 78300, run: at(with(Concord(m, 2, 100), func(c *Config) { c.SRPT, c.HintedSRPT = true, true }),
			Workload{Dist: hintedDist{inner: heavyTail, factor: 0.5}}, 25, p),
			want: "{25 0.025339700220196926 1.3517185599823112 49.826669254658384 247.77777777777777 4.227743977401104 4500 0.251396346714604 0.334728304946872 0.1122 0.279}"},
		{name: "ShinjukuDeferAPI-LevelDB@30", events: 1434128, run: at(ShinjukuDeferAPI(m, 14, 5), levelDB5050(), 30, p),
			want: "{30 0.030523265001988632 1.9291666666666667 5.485 8.466666666666667 1.8284181648889026 4500 0.71237697243208 0.36636844945480507 0 45.6904}"},
		{name: "Concord-LevelDB@30", events: 1515094, run: at(Concord(m, 14, 5), levelDB5050(), 30, p),
			want: "{30 0.029609989038766982 1.6641666666666666 5.3525 10.6475 1.6144375274074552 4500 0.31602648029610536 0.4300603465662505 0 47.8452}"},
		{name: "UIPI@180", events: 581182, run: at(with(Shinjuku(m, 14, 2), func(c *Config) { c.Mech = mech.UIPI{M: m} }), ycsb, 180, p),
			want: "{180 0.18242269081422582 9.076935 31.244 32.2575 13.093521503333326 4500 0.9961301397638742 0.25796457859000677 0 15.7206}"},
		{name: "LinuxIPI@180", events: 423519, run: at(with(Shinjuku(m, 14, 2), func(c *Config) { c.Mech = mech.LinuxIPI{M: m} }), ycsb, 180, p),
			want: "{180 0.16640704394360734 53.43333 229.907 231.825 97.81300796888904 4500 0.9981945667767338 0.20371151893568337 0 11.1548}"},
		{name: "Rdtsc-JBSQ@180", events: 690592, run: at(with(CoopJBSQ(m, 14, 2), func(c *Config) { c.Mech = mech.Rdtsc{M: m} }), ycsb, 180, p),
			want: "{180 0.18202374288578402 2.641805 6.5855 7.465 2.912999031111099 4500 0.938574941213612 0.12682884065104838 0 29.202}"},
		{name: "Rdtsc-SQ-LevelDB@30", events: 1552799, run: at(with(CoopSQ(m, 14, 5), func(c *Config) { c.Mech = mech.Rdtsc{M: m} }), levelDB5050(), 30, p),
			want: "{30 0.02945136050088612 2.14 9.2925 14.041666666666666 2.0485521259259567 4500 0.2854972918767187 0.32271282051246664 0 60.912}"},
		{name: "CacheReload@180", events: 708993, run: at(Concord(cold, 14, 2), ycsb, 180, p),
			want: "{180 0.17945260817228254 1.585125 4.5675 5.116 1.8169736522222375 4500 0.8456548036349705 0.25575032233597933 0 20.4266}"},
		{name: "QueueCap@300", events: 19406, run: at(Shinjuku(m, 14, 2), ycsb, 300, RunParams{Requests: 5000, Seed: 1, MaxCentralQueue: 200}),
			want: "{300 0.17078662373220654 NaN NaN +Inf NaN 0 0.9790739545714787 0.30770918877846437 0 10.556962025316455}"},
		{name: "Watchdog@300", events: 456580, run: at(Concord(m, 14, 2), ycsb, 300, RunParams{Requests: 5000, Seed: 1, DrainSlackUS: 100}),
			want: "{300 0.2527519639112213 46.01406 155.357 +Inf 66.29814099264713 3808 0.9978847941055918 0.0035599806864267665 0 16.713025307638727}"},
		{name: "Replicated2@180", events: 669230, run: replicated(Concord(m, 14, 2), ycsb, 180, 2, p),
			want: "{180 0.18000256804926174 1.5825 4.9645 6.628 1.7624373177778199 4500 0.46060959840926285 0.28833506444418044 0.0056 20.435000000000002}"},
	}
}

// TestSimulatedPointsGolden pins the simulated numbers themselves: every
// point literal in goldenCases was captured at the commit before the event
// engine was rebuilt (PR 24), and an engine or machine change that keeps
// the firing order (time, then arming sequence) and the RNG draw order
// must not move one digit of them. The event counts were captured at the
// commit before workers shared one timer; a change that adds or drops an
// event moves them even where the points hold. Never edit a literal to
// match.
func TestSimulatedPointsGolden(t *testing.T) {
	for _, c := range goldenCases() {
		pt, events := c.run()
		if got := fmt.Sprint(pt); got != c.want {
			t.Errorf("%s:\n got  %s\n want %s", c.name, got, c.want)
		}
		if events != c.events {
			t.Errorf("%s: the engine fired %d events, want %d", c.name, events, c.events)
		}
	}
}
