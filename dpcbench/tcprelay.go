package main

import (
	_ "embed"
	"fmt"
	goruntime "runtime"
	"sync"
	"time"

	"borealis/internal/client"
	"borealis/internal/cluster"
	"borealis/internal/fabric"
	rtpkg "borealis/internal/runtime"
	"borealis/internal/scenario"
	"borealis/internal/transport"
)

// relaySpec is scenarios/cluster-chain-failover.json with its faults
// stripped, acknowledgements every 250ms so the output buffers stay
// bounded, and the source raised to an open-loop offered rate of 40000
// tuples/s. That rate sits well below where the run loops fall behind on
// a 2-core machine, so latency measures the path, not a backlog.
//
//go:embed specs/tcp-relay.json
var relaySpec []byte

const (
	// relayWorkers is the number of in-process workers the endpoints
	// are split across, as cluster.Plan splits them for processes.
	relayWorkers = 2
	// relaySetupReps is how many cluster set-ups a run measures, after
	// setupWarmup of unmeasured ones; setup_s is their median.
	relaySetupReps = 21
	// probeIntervalUS spaces the buffer-peak probes, in clock
	// microseconds.
	probeIntervalUS = 100_000
)

// relayWorker is one in-process worker, built as cluster.RunWorker builds
// a worker process: a wall clock, a TCP listener and a compiled partition.
type relayWorker struct {
	wall *rtpkg.WallClock
	clk  rtpkg.Runtime // wall, or the tracing wrapper around it
	tcp  *transport.TCP
	pr   *scenario.PartitionRun
	tr   *tracer
	tc   *tracedClock
	fab  *tracedFabric
	pk   peaks
}

type relay struct {
	workers  []*relayWorker
	compileS float64
}

func (rl *relay) close() {
	for _, w := range rl.workers {
		if w.tcp != nil {
			w.tcp.Close()
		}
	}
}

func loadRelay(seed int64, seconds float64) (*scenario.Spec, error) {
	s, err := scenario.Parse(relaySpec)
	if err != nil {
		return nil, err
	}
	s.Seed = seed
	s.DurationS = seconds
	return s, nil
}

// setupRelay plays the boss: it plans the partitions, brings up every
// worker's listener and partition, then hands out the routes.
func setupRelay(s *scenario.Spec, traced bool) (*relay, error) {
	parts, err := cluster.Plan(s, relayWorkers)
	if err != nil {
		return nil, err
	}
	rl := &relay{}
	routes := map[string]string{}
	for _, part := range parts {
		w := &relayWorker{wall: rtpkg.NewWall(1)}
		w.clk = w.wall
		if traced {
			w.tr = newTracer()
			w.tc = &tracedClock{Runtime: w.wall, tr: w.tr, kinds: &kindCache{}, wall: true, speed: 1}
			w.clk = w.tc
		}
		rl.workers = append(rl.workers, w)
		w.tcp, err = transport.Listen(w.clk, transport.Config{ListenAddr: "127.0.0.1:0"})
		if err != nil {
			rl.close()
			return nil, err
		}
		var fab fabric.Fabric = w.tcp
		if traced {
			w.fab = &tracedFabric{inner: w.tcp, tr: w.tr, sendKind: sendTCP, sources: sourceSet(s)}
			fab = w.fab
		}
		own := map[string]bool{}
		for _, ep := range part.Owned {
			own[ep] = true
			routes[ep] = w.tcp.Addr()
		}
		t0 := time.Now()
		w.pr, err = scenario.CompilePartition(w.clk, fab, s, own, false)
		rl.compileS += time.Since(t0).Seconds()
		if err != nil {
			rl.close()
			return nil, err
		}
	}
	for i, w := range rl.workers {
		for j, part := range parts {
			if j == i {
				continue
			}
			for _, ep := range part.Owned {
				w.tcp.AddRoute(ep, routes[ep])
			}
		}
	}
	return rl, nil
}

// relayOutcome is what one measured cluster run produced.
type relayOutcome struct {
	wallS, cpuNS float64
	processed    uint64
	produced     uint64
	peakHeap     float64
	heapSamples  int
	before       rtSample
	after        rtSample
	obs          *clientObserver
	rl           *relay
}

// runRelay drives every worker from one common start instant to the
// horizon and returns the measurements.
func runRelay(rl *relay, s *scenario.Spec) *relayOutcome {
	durUS := scenario.DurationUS(s, false)
	out := &relayOutcome{obs: newObserver(boundUS(s)), rl: rl}
	goruntime.GC()
	// The common start instant leaves every worker time to start its
	// deployment before its clock runs.
	startAt := time.Now().Add(20 * time.Millisecond)
	out.obs.wall, out.obs.start, out.obs.speed = true, startAt, 1
	for _, w := range rl.workers {
		if w.tc != nil {
			w.tc.anchor = startAt
		}
		dep := w.pr.Deployment()
		if dep.Client != nil {
			dep.Client.OnDeliver(out.obs.observe)
		}
		w.wall.NewTicker(probeIntervalUS, func() { w.pk.sample(dep) })
	}
	stopHeap := sampleHeap()
	out.before = readRuntime()
	c0 := cpuNS()
	var wg sync.WaitGroup
	for _, w := range rl.workers {
		wg.Add(1)
		go func(w *relayWorker) {
			defer wg.Done()
			w.pr.Deployment().Start()
			time.Sleep(time.Until(startAt))
			w.clk.RunUntil(durUS)
		}(w)
	}
	wg.Wait()
	out.wallS = time.Since(startAt).Seconds()
	out.cpuNS = float64(cpuNS() - c0)
	out.after = readRuntime()
	out.peakHeap, out.heapSamples = stopHeap()
	for _, w := range rl.workers {
		out.processed += processed(w.pr.Deployment())
		out.produced += produced(w.pr.Deployment())
	}
	return out
}

// clientOf returns the client of whichever worker hosts it.
func clientOf(rl *relay) *client.Client {
	for _, w := range rl.workers {
		if c := w.pr.Deployment().Client; c != nil {
			return c
		}
	}
	return nil
}

// sampleHeap polls the live heap until the returned stop function is
// called; stop returns the peak in bytes and the sample count.
func sampleHeap() func() (float64, int) {
	done := make(chan struct{})
	res := make(chan [2]float64, 1)
	go func() {
		var peak float64
		n := 0
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			peak = max(peak, readRuntime().liveBytes)
			n++
			select {
			case <-done:
				res <- [2]float64{peak, float64(n)}
				return
			case <-tick.C:
			}
		}
	}()
	return func() (float64, int) {
		close(done)
		r := <-res
		return r[0], int(r[1])
	}
}

func runTCPRelay(cfg config) (*result, error) {
	r := &result{}
	var setupS []float64
	var s *scenario.Spec
	var rl *relay
	var compileS []float64
	warm := time.Now().Add(setupWarmup)
	for len(setupS) < relaySetupReps {
		if rl != nil {
			rl.close()
		}
		t0 := time.Now()
		spec, err := loadRelay(cfg.seed, cfg.seconds)
		if err != nil {
			return nil, err
		}
		rl, err = setupRelay(spec, false)
		if err != nil {
			return nil, err
		}
		if t0.After(warm) {
			setupS = append(setupS, time.Since(t0).Seconds())
			compileS = append(compileS, rl.compileS)
		}
		s = spec
	}
	runs := []*relayOutcome{runRelay(rl, s)}
	rl.close()
	if cfg.trace {
		// A second run of the same length on a fresh, traced cluster.
		c, err := setupRelay(s, true)
		if err != nil {
			return nil, err
		}
		runs = append(runs, runRelay(c, s))
		c.close()
	}
	r.note("offered rate %g tuples/s open loop over %d in-process workers on TCP loopback; %gs per run",
		s.Sources[0].Rate, relayWorkers, s.DurationS)

	// Correctness: Definition 1 audit of each run's client view against
	// the fault-free virtual reference.
	ref, err := scenario.ClusterReference(s, false)
	if err != nil {
		return nil, err
	}
	durUS := scenario.DurationUS(s, false)
	var refStable, missing int
	var dups uint64
	for i, o := range runs {
		cl := clientOf(o.rl)
		st := cl.Stats()
		rs, miss, res := audit(cl.StableView(), ref, durUS, boundUS(s))
		refStable, missing, dups = refStable+rs, missing+miss, dups+st.StableDuplicates
		r.check(fmt.Sprintf("definition-1 audit run %d", i+1), res.OK, "%d stable positions compared; %s", res.Compared, res.Reason)
		r.check(fmt.Sprintf("stable duplicates run %d", i+1), st.StableDuplicates == 0, "%d", st.StableDuplicates)
		r.check(fmt.Sprintf("reference tuples present run %d", i+1), miss == 0, "%d of %d missing", miss, rs)
	}

	u := runs[0]
	r.addE2E("throughput_tps", float64(u.processed)/u.wallS, "1/s", 1, true)
	r.addE2E("cpu_ns_per_tuple", u.cpuNS/float64(u.processed), "ns", 1, true)
	r.addE2E("setup_s", median(setupS), "s", len(setupS), true)
	r.addE2E("peak_heap_mb", u.peakHeap/(1<<20), "MB", u.heapSamples, true)
	addLatency(r, u.obs, "real ms from each tuple's due time")
	r.addE2E("stabilization_s", 0, "s", 1, false)
	r.addE2E("tentative_tuples", float64(clientOf(u.rl).Stats().Tentative), "count", 1, true)
	r.addE2E("failed_share", float64(int(dups)+missing)/float64(refStable), "share", refStable, refStable > 0)
	r.note("%d engine tuples in %.2fs", u.processed, u.wallS)
	if !cfg.trace {
		return r, nil
	}

	t := runs[1]
	in := layerInputs{
		tr: newTracer(), codec: &tracedFabric{}, tuples: t.processed, produced: t.produced,
		probes:  int(durUS / probeIntervalUS),
		gcAlloc: u.after.allocBytes - u.before.allocBytes, gcObjects: u.after.allocObjects - u.before.allocObjects,
		gcCPU: u.after.gcCPU - u.before.gcCPU, usedCPU: u.after.usedCPU - u.before.usedCPU,
		gcTuples: u.processed, gcRuns: 1,
		compileS:  compileS,
		overhead:  (float64(u.processed)/u.wallS)/(float64(t.processed)/t.wallS) - 1,
		overheadN: 1,
	}
	for _, w := range t.rl.workers {
		in.tr.merge(w.tr)
		in.codec.mergeCodec(w.fab)
		in.tcpDropped += w.tcp.Dropped.Load()
		in.tcpStalls += w.tcp.CtlStalls.Load()
		in.pk.sourceLog = max(in.pk.sourceLog, w.pk.sourceLog)
		in.pk.inputLog = max(in.pk.inputLog, w.pk.inputLog)
		in.pk.outBuf = max(in.pk.outBuf, w.pk.outBuf)
		in.nodes.add(w.pr.Deployment(), durUS)
	}
	addLayers(r, in)
	r.note("traced vs untraced cpu_ns_per_tuple: %.0f vs %.0f", t.cpuNS/float64(t.processed), u.cpuNS/float64(u.processed))
	return r, nil
}
