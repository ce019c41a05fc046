package main

import (
	_ "embed"
	"math"
	goruntime "runtime"
	"time"

	"borealis/internal/client"
	"borealis/internal/deploy"
	"borealis/internal/fabric"
	"borealis/internal/netsim"
	rtpkg "borealis/internal/runtime"
	"borealis/internal/scenario"
	"borealis/internal/tuple"
)

// The workload specs are copies owned by the benchmark, so edits to the
// repository's scenarios cannot shift its baseline.
var (
	//go:embed specs/chain-throughput.json
	chainSpec []byte
	//go:embed specs/wide-join-count.json
	joinSpec []byte
)

// virtualSpec is a workload run on the virtual clock and netsim.
type virtualSpec struct {
	spec   []byte
	faults bool // keep the spec's fault schedule
}

var (
	// chainSteady drives the stateless forwarding path hardest and
	// touches no SJoin, no reconciliation and no wire.
	chainSteady = virtualSpec{chainSpec, false}
	// chainRecovery adds a 5s source disconnect: tentative processing,
	// checkpoint/undo, replay, grants and client corrections.
	chainRecovery = virtualSpec{chainSpec, true}
	// joinSteady is dominated by the stateful SJoin and Aggregate.
	joinSteady = virtualSpec{joinSpec, false}
)

const (
	// setupReps is how many set-ups a run measures; setup_s is their
	// median. A set-up takes about a millisecond, so many of them cost
	// nothing and steady the median.
	setupReps = 41
	// setupWarmup is how long a run sets up unmeasured first, so the
	// measured set-ups find the processor and the heap warm.
	setupWarmup = 300 * time.Millisecond
	// minReps is the fewest measured repetitions a run makes.
	minReps = 3
	// heapSliceUS spaces the forced-GC live-heap samples of the untimed
	// pass, in virtual microseconds.
	heapSliceUS = 5_000_000
)

// splitmix64 derives the benchmark's seeded choices.
type splitmix64 uint64

func (s *splitmix64) next() uint64 {
	*s += 0x9E3779B97F4A7C15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// load parses the spec and applies the workload seed: it replaces the
// spec's seed, and scales each source group's rate by a factor in
// [0.95, 1.05) drawn from the seed, so an unseen seed gives new inputs of
// the same shape. The spec's constant workloads draw nothing from the
// seed themselves.
func (v virtualSpec) load(seed int64) (*scenario.Spec, error) {
	s, err := scenario.Parse(v.spec)
	if err != nil {
		return nil, err
	}
	s.Seed = seed
	if !v.faults {
		s.Faults = nil
	}
	rng := splitmix64(seed)
	for i := range s.Sources {
		u := float64(rng.next()>>11) / (1 << 53)
		s.Sources[i].Rate *= 0.95 + 0.1*u
	}
	return s, nil
}

// sourceSet names a spec's source endpoints: scenario.Endpoints lists the
// expanded source members first.
func sourceSet(s *scenario.Spec) map[string]bool {
	n := 0
	for _, ss := range s.Sources {
		n += max(ss.Count, 1)
	}
	out := map[string]bool{}
	for _, ep := range scenario.Endpoints(s)[:n] {
		out[ep] = true
	}
	return out
}

// owned is every endpoint of a spec: a virtual run hosts them all.
func owned(s *scenario.Spec) map[string]bool {
	out := map[string]bool{}
	for _, ep := range scenario.Endpoints(s) {
		out[ep] = true
	}
	return out
}

// virtualRun is one compiled virtual deployment, traced or not.
type virtualRun struct {
	dep *deploy.Deployment
	tr  *tracer
	fab *tracedFabric
}

// build compiles the spec on a fresh virtual clock and netsim, wrapped
// for tracing when traced is set. Untraced and traced runs share this
// path, so they differ only by the wrappers.
func build(s *scenario.Spec, traced bool) (*virtualRun, error) {
	var clk rtpkg.Runtime = rtpkg.NewVirtual()
	vr := &virtualRun{}
	if traced {
		vr.tr = newTracer()
		clk = &tracedClock{Runtime: clk, tr: vr.tr, kinds: &kindCache{}}
	}
	var fab fabric.Fabric = netsim.New(clk)
	if traced {
		vr.fab = &tracedFabric{inner: fab, tr: vr.tr, sendKind: sendNetsim, sources: sourceSet(s)}
		fab = vr.fab
	}
	pr, err := scenario.CompilePartition(clk, fab, s, owned(s), false)
	if err != nil {
		return nil, err
	}
	vr.dep = pr.Deployment()
	return vr, nil
}

// processed sums the engine-processed tuples of a deployment's replicas.
func processed(dep *deploy.Deployment) uint64 {
	var n uint64
	for _, row := range dep.Nodes {
		for _, nd := range row {
			if nd != nil {
				n += nd.Engine().Processed
			}
		}
	}
	return n
}

// produced sums the data tuples a deployment's sources generated.
func produced(dep *deploy.Deployment) uint64 {
	var n uint64
	for _, src := range dep.Sources {
		n += src.Produced
	}
	return n
}

// peaks tracks the high-water marks of the layers' buffers.
type peaks struct {
	sourceLog, inputLog, outBuf int
}

func (p *peaks) sample(dep *deploy.Deployment) {
	for _, src := range dep.Sources {
		p.sourceLog = max(p.sourceLog, src.LogLen())
	}
	for gi, g := range dep.Topology.Groups {
		for _, nd := range dep.Nodes[gi] {
			if nd == nil {
				continue
			}
			for _, in := range g.Inputs {
				if im := nd.Input(in); im != nil {
					p.inputLog = max(p.inputLog, im.LogLen())
				}
			}
			if ob := nd.Output(g.Output); ob != nil {
				p.outBuf = max(p.outBuf, ob.Len())
			}
		}
	}
}

// boundUS is the spec's availability bound D in microseconds.
func boundUS(s *scenario.Spec) int64 {
	return int64(math.Round(scenario.MergeClusterReports(s, false, nil).Availability.BoundS * 1e6))
}

// audit compares a stable view with the fault-free reference
// (Definition 1). Reference stable tuples count as missing when they are
// absent from the audited view and older than horizon − D, so tuples still
// legitimately in flight at the horizon are not failures; a divergence
// makes every reference tuple from the diverging position on missing.
func audit(stable, reference []tuple.Tuple, horizonUS, boundUS int64) (refStable, missing int, res client.AuditResult) {
	res = client.VerifyViews(stable, reference)
	matched := 0
	for _, t := range reference {
		if t.Type != tuple.Insertion {
			continue
		}
		if refStable == matched && matched < len(stable) && tuple.SameValue(stable[matched], t) {
			matched++
		} else if t.STime <= horizonUS-boundUS {
			missing++
		}
		refStable++
	}
	return refStable, missing, res
}

func runVirtual(v virtualSpec, cfg config) (*result, error) {
	r := &result{}

	// Setup: spec load plus compile, repeated; the median is setup_s.
	var setupS, compileS []float64
	var s *scenario.Spec
	warm := time.Now().Add(setupWarmup)
	for len(setupS) < setupReps {
		t0 := time.Now()
		spec, err := v.load(cfg.seed)
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		if _, err := build(spec, false); err != nil {
			return nil, err
		}
		t2 := time.Now()
		if t0.After(warm) {
			setupS = append(setupS, t2.Sub(t0).Seconds())
			compileS = append(compileS, t2.Sub(t1).Seconds())
		}
		s = spec
	}
	durUS := scenario.DurationUS(s, false)
	bound := boundUS(s)
	r.note("spec %s, %d sources, %d endpoints, %.0fs virtual, D %.2fs, faults %d",
		s.Name, len(sourceSet(s)), len(scenario.Endpoints(s)), float64(durUS)/1e6, float64(bound)/1e6, len(s.Faults))

	// Untimed client pass: the client's view and latency, the buffer
	// peaks probed every 100ms of virtual time, and the live heap after a
	// forced GC every heapSliceUS.
	cp, err := build(s, false)
	if err != nil {
		return nil, err
	}
	obs := newObserver(bound)
	cp.dep.Client.OnDeliver(obs.observe)
	cp.dep.Start()
	var pk peaks
	var peakHeap float64
	probes, heapSamples := 0, 0
	for t := int64(0); t < durUS; {
		t = min(t+probeIntervalUS, durUS)
		cp.dep.RT.RunUntil(t)
		pk.sample(cp.dep)
		probes++
		if t%heapSliceUS == 0 || t == durUS {
			goruntime.GC()
			peakHeap = max(peakHeap, readRuntime().liveBytes)
			heapSamples++
		}
	}
	want := processed(cp.dep)
	st := cp.dep.Client.Stats()
	stable := cp.dep.Client.StableView()
	var nodes nodeMaxima
	nodes.add(cp.dep, durUS)

	// Definition 1 audit against the fault-free reference.
	ref, err := scenario.ClusterReference(s, false)
	if err != nil {
		return nil, err
	}
	refStable, missing, res := audit(stable, ref, durUS, bound)
	r.check("definition-1 audit", res.OK, "%d stable positions compared; %s", res.Compared, res.Reason)
	r.check("stable duplicates", st.StableDuplicates == 0, "%d", st.StableDuplicates)
	r.check("reference tuples present", missing == 0, "%d of %d missing", missing, refStable)

	lastHeal := scenario.LastFaultHealUS(s, false)
	stabUS := int64(0)
	if lastHeal >= 0 && obs.lastRecDoneUS > lastHeal {
		stabUS = obs.lastRecDoneUS - lastHeal
	}
	if len(s.Faults) > 0 {
		// The scenario engine's own audited run must agree with what the
		// benchmark measured on its deployment.
		audited := s.Clone()
		audited.VerifyConsistency = true
		rep, err := scenario.Run(audited, scenario.Options{})
		if err != nil {
			return nil, err
		}
		c := rep.Consistency
		if c == nil {
			c = &scenario.ConsistencyReport{Reason: "no consistency report"}
		}
		r.check("scenario.Run audit", c.OK && rep.Client.StableDuplicates == 0,
			"ok %v, %d/%d stable, %d duplicates %s", c.OK, c.GotStable, c.RefStable, rep.Client.StableDuplicates, c.Reason)
		agree := rep.Client.NewTuples == st.NewTuples && rep.Client.Tentative == st.Tentative &&
			rep.Availability.Violations == obs.late && rep.Stabilization.LatencyS == float64(stabUS)/1e6
		r.check("report agrees", agree,
			"new %d/%d, tentative %d/%d, late %d/%d, stabilization %gs/%gs",
			rep.Client.NewTuples, st.NewTuples, rep.Client.Tentative, st.Tentative,
			rep.Availability.Violations, obs.late, rep.Stabilization.LatencyS, float64(stabUS)/1e6)
	}

	// Measured repetitions. In trace mode untraced and traced repetitions
	// alternate, so both see the same machine conditions.
	var tps, cpuPerTuple, tracedTPS []float64
	var gcAlloc, gcObjs, gcCPU, gcUsed float64
	var untracedTuples uint64
	tr := newTracer()
	var codec tracedFabric
	var tracedTuples, tracedProduced uint64
	drift := 0
	start := time.Now()
	var last time.Duration // the previous repetition, set-up included
	for i := 0; ; i++ {
		enough := len(tps) >= minReps && (!cfg.trace || len(tracedTPS) >= minReps)
		if enough && (time.Since(start)+last).Seconds() > cfg.seconds {
			break // the next repetition would end past the run length
		}
		traced := cfg.trace && i%2 == 1
		repStart := time.Now()
		goruntime.GC()
		vr, err := build(s, traced)
		if err != nil {
			return nil, err
		}
		before := readRuntime()
		c0 := cpuNS()
		t0 := time.Now()
		vr.dep.Start()
		vr.dep.RT.RunUntil(durUS)
		wall := time.Since(t0).Seconds()
		cpu := float64(cpuNS() - c0)
		after := readRuntime()
		got := processed(vr.dep)
		last = time.Since(repStart)
		if got != want {
			drift++
		}
		if traced {
			tracedTPS = append(tracedTPS, float64(got)/wall)
			tr.merge(vr.tr)
			codec.mergeCodec(vr.fab)
			tracedTuples += got
			tracedProduced += produced(vr.dep)
			continue
		}
		tps = append(tps, float64(got)/wall)
		cpuPerTuple = append(cpuPerTuple, cpu/float64(got))
		gcAlloc += after.allocBytes - before.allocBytes
		gcObjs += after.allocObjects - before.allocObjects
		gcCPU += after.gcCPU - before.gcCPU
		gcUsed += after.usedCPU - before.usedCPU
		untracedTuples += got
	}
	reps := len(tps) + len(tracedTPS)
	r.check("processed tuples repeat", drift == 0, "%d per run, %d of %d repetitions differ", want, drift, reps)

	// End-to-end metrics.
	r.addE2E("throughput_tps", median(tps), "1/s", len(tps), true)
	r.addE2E("cpu_ns_per_tuple", median(cpuPerTuple), "ns", len(cpuPerTuple), true)
	r.addE2E("setup_s", median(setupS), "s", len(setupS), true)
	r.addE2E("peak_heap_mb", peakHeap/(1<<20), "MB", heapSamples, true)
	addLatency(r, obs, "virtual ms")
	r.addE2E("stabilization_s", float64(stabUS)/1e6, "s", 1, len(s.Faults) > 0)
	r.addE2E("tentative_tuples", float64(st.Tentative), "count", 1, true)
	r.addE2E("failed_share", float64(int(st.StableDuplicates)+missing)/float64(refStable), "share", refStable, refStable > 0)
	r.note("%d engine tuples per run; %d measured repetitions in %.1fs", want, len(tps), time.Since(start).Seconds())
	r.note("per-repetition tuples/s: %.4g", tps)

	if !cfg.trace {
		return r, nil
	}
	addLayers(r, layerInputs{
		tr: tr, codec: &codec, tuples: tracedTuples, produced: tracedProduced,
		pk: pk, probes: probes, nodes: nodes,
		gcAlloc: gcAlloc, gcObjects: gcObjs, gcCPU: gcCPU, usedCPU: gcUsed,
		gcTuples: untracedTuples, gcRuns: len(tps),
		compileS: compileS,
		overhead: median(tps)/median(tracedTPS) - 1, overheadN: len(tracedTPS),
	})
	return r, nil
}

// addLatency reports the client latency metrics of an observer.
func addLatency(r *result, obs *clientObserver, unitNote string) {
	n := len(obs.latMS)
	p50, ok50 := percentile(obs.latMS, 0.50)
	p99, ok99 := percentile(obs.latMS, 0.99)
	r.addE2E("latency_p50_ms", p50, "ms", n, ok50)
	r.addE2E("latency_p99_ms", p99, "ms", n, ok99)
	r.addE2E("availability_violation_share", float64(obs.late)/float64(n), "share", n, n > 0)
	r.note("latencies in %s over %d new-information deliveries", unitNote, n)
}
