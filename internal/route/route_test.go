package route

import (
	"strings"
	"testing"
	"time"

	"netprobe/internal/sim"
)

func TestINRIAToUMdMatchesTable1(t *testing.T) {
	p := INRIAToUMd()
	if len(p.Hops) != 10 {
		t.Fatalf("Table 1 has 10 hops, got %d", len(p.Hops))
	}
	wantNames := []string{
		"tom.inria.fr", "t8-gw.inria.fr", "sophia-gw.atlantic.fr",
		"icm-sophia.icp.net", "Ithaca.NY.NSS.NSF.NET", "Ithaca1.NY.NSS.NSF.NET",
		"nss-SURA-eth.sura.net", "sura8-umd-c1.sura.net",
		"csc2hub-gw.umd.edu", "avwhub-gw.umd.edu",
	}
	for i, w := range wantNames {
		if p.Hops[i].Name != w {
			t.Errorf("hop %d = %q, want %q", i+1, p.Hops[i].Name, w)
		}
	}
	idx, bw := p.Bottleneck()
	if bw != 128_000 {
		t.Fatalf("bottleneck = %d b/s, want 128000 (transatlantic link)", bw)
	}
	if idx != 3 {
		t.Fatalf("bottleneck at hop %d, want hop 4 (index 3)", idx+1)
	}
}

func TestUMdToPittMatchesTable2(t *testing.T) {
	p := UMdToPitt()
	if len(p.Hops) != 14 {
		t.Fatalf("Table 2 has 14 hops, got %d", len(p.Hops))
	}
	if p.Hops[0].Name != "lena.cs.umd.edu" || p.Hops[13].Name != "hub-eh.gw.pitt.edu" {
		t.Fatalf("endpoints wrong: %q ... %q", p.Hops[0].Name, p.Hops[13].Name)
	}
	_, bw := p.Bottleneck()
	if bw <= 128_000 {
		t.Fatalf("UMd-Pitt bottleneck %d should be far above 128 kb/s", bw)
	}
}

func TestMinRTTNearPaperValue(t *testing.T) {
	// The paper reads D ≈ 140 ms off the Figure 2 phase plot for a
	// 72-byte wire packet.
	d := INRIAToUMd().MinRTT(72)
	if d < 130*time.Millisecond || d > 150*time.Millisecond {
		t.Fatalf("INRIA-UMd MinRTT = %v, want ≈140 ms", d)
	}
}

func TestTracerouteRendering(t *testing.T) {
	out := INRIAToUMd().Traceroute()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 10 {
		t.Fatalf("traceroute has %d lines, want 10", len(lines))
	}
	if !strings.Contains(lines[3], "icm-sophia.icp.net") {
		t.Fatalf("line 4 = %q, want transatlantic hop", lines[3])
	}
	if !strings.HasPrefix(lines[0], " 1  ") {
		t.Fatalf("line 1 = %q, want numbered format", lines[0])
	}
}

func TestPathStringMentionsBottleneck(t *testing.T) {
	s := INRIAToUMd().String()
	if !strings.Contains(s, "128000") || !strings.Contains(s, "INRIA-UMd") {
		t.Fatalf("String() = %q", s)
	}
}

func TestBottleneckPanicsOnEmptyPath(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty path did not panic")
		}
	}()
	Path{}.Bottleneck()
}

func TestBuildRoundTripDeliversProbe(t *testing.T) {
	sched := sim.NewScheduler()
	var f sim.Factory
	var rtt time.Duration
	delivered := 0
	p := INRIAToUMd()
	// Remove random loss so the single probe must survive.
	for i := range p.Hops {
		p.Hops[i].LossProb = 0
	}
	b := Build(sched, p, BuildOptions{Seed: 1, Deliver: func(pkt *sim.Packet, at time.Duration) {
		delivered++
		rtt = at - pkt.SentAt
	}})
	pkt := f.New("probe", 0, 72, 0)
	pkt.Probe = true
	sched.At(0, func() { b.Head.Receive(pkt) })
	sched.Run(time.Second)
	if delivered != 1 {
		t.Fatalf("delivered %d probes, want 1", delivered)
	}
	want := p.MinRTT(72)
	if rtt != want {
		t.Fatalf("unloaded RTT = %v, want MinRTT %v", rtt, want)
	}
}

func TestBuildQueueIndexingMatchesHops(t *testing.T) {
	sched := sim.NewScheduler()
	p := INRIAToUMd()
	b := Build(sched, p, BuildOptions{Seed: 1})
	if len(b.ForwardQueues) != len(p.Hops) || len(b.ReturnQueues) != len(p.Hops) {
		t.Fatalf("queue counts %d/%d, want %d", len(b.ForwardQueues), len(b.ReturnQueues), len(p.Hops))
	}
	for i, h := range p.Hops {
		if b.ForwardQueues[i].Name != h.Name {
			t.Errorf("forward queue %d = %q, want %q", i, b.ForwardQueues[i].Name, h.Name)
		}
		if b.ReturnQueues[i].Name != h.Name {
			t.Errorf("return queue %d = %q, want %q", i, b.ReturnQueues[i].Name, h.Name)
		}
	}
	if b.BottleneckForward().Rate() != 128_000 || b.BottleneckReturn().Rate() != 128_000 {
		t.Fatal("bottleneck queues not found")
	}
}

func TestBuildCrossTrafficDoesNotReturn(t *testing.T) {
	sched := sim.NewScheduler()
	var f sim.Factory
	delivered := 0
	b := Build(sched, INRIAToUMd(), BuildOptions{Seed: 1, Deliver: func(*sim.Packet, time.Duration) { delivered++ }})
	cross := f.New("ftp", 0, 512, 0)
	sched.At(0, func() { b.Head.Receive(cross) })
	sched.Run(time.Second)
	if delivered != 0 {
		t.Fatalf("cross traffic completed a round trip: %d deliveries", delivered)
	}
}

func TestBuildRandomLossObservable(t *testing.T) {
	sched := sim.NewScheduler()
	var f sim.Factory
	delivered := 0
	drops := 0
	b := Build(sched, INRIAToUMd(), BuildOptions{Seed: 7, Deliver: func(*sim.Packet, time.Duration) { delivered++ }})
	b.OnDrop(func(*sim.Packet, time.Duration) { drops++ })
	const n = 2000
	for i := 0; i < n; i++ {
		pkt := f.New("probe", i, 72, 0)
		pkt.Probe = true
		at := time.Duration(i) * 50 * time.Millisecond
		pkt.SentAt = at
		sched.At(at, func() { b.Head.Receive(pkt) })
	}
	sched.Run(time.Hour)
	if delivered+drops != n {
		t.Fatalf("delivered %d + dropped %d != %d", delivered, drops, n)
	}
	// Two SURAnet hops at 2 % crossed in each direction ⇒ ≈7.8 % loss.
	rate := float64(drops) / n
	if rate < 0.05 || rate > 0.11 {
		t.Fatalf("random loss rate = %v, want ≈0.078", rate)
	}
}

func TestBuildDeterministicGivenSeed(t *testing.T) {
	run := func() int {
		sched := sim.NewScheduler()
		var f sim.Factory
		delivered := 0
		b := Build(sched, INRIAToUMd(), BuildOptions{Seed: 3, Deliver: func(*sim.Packet, time.Duration) { delivered++ }})
		for i := 0; i < 500; i++ {
			pkt := f.New("probe", i, 72, 0)
			pkt.Probe = true
			at := time.Duration(i) * 20 * time.Millisecond
			pkt.SentAt = at
			sched.At(at, func() { b.Head.Receive(pkt) })
		}
		sched.Run(time.Hour)
		return delivered
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("deliveries differ across identical runs: %d vs %d", a, b)
	}
}

// A built pipeline costs one event per packet-hop: every packet a
// queue admits and its lossy link lets through is carried to the next
// element by exactly one event, its link delivery, so the engine runs
// that many events plus one per source emission. A departure is not an
// event, and a lossy link drops a packet as it departs. Two events per
// hop (a completion and then a delivery) would fail this count.
func TestBuildRunsOneEventPerPacketHop(t *testing.T) {
	sched := sim.NewScheduler()
	var f sim.Factory
	p := INRIAToUMd() // keeps its random loss: dropped packets count too
	b := Build(sched, p, BuildOptions{Seed: 3})
	const probes, cross = 500, 3000
	sim.NewPeriodicSource(sched, &f, "probe", 72, 20*time.Millisecond, probes, 0, b.Head).Start()
	// Cross traffic at the bottleneck, fast enough to fill its buffer.
	sim.NewPeriodicSource(sched, &f, "ftp", 512, 3*time.Millisecond, cross, time.Millisecond, b.BottleneckForward()).Start()
	sched.Run(time.Hour)

	admitted := int64(0)
	for _, qs := range [][]*sim.Queue{b.ForwardQueues, b.ReturnQueues} {
		for _, q := range qs {
			st := q.Stats(sched.Now())
			if st.Served+st.Dropped != st.Arrived {
				t.Fatalf("%s: %+v does not drain", q.Name, st)
			}
			admitted += st.Served
		}
	}
	lossy := int64(0)
	for _, l := range b.lossLinks {
		lossy += l.Dropped()
	}
	if lossy == 0 {
		t.Fatal("no lossy-link drops: the check would not cover them")
	}
	if got, want := sched.Executed(), uint64(admitted-lossy+probes+cross); got != want {
		t.Fatalf("ran %d events for %d admitted packet-hops, %d lossy drops and %d emissions, want %d", got, admitted, lossy, probes+cross, want)
	}
}
