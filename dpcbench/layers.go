package main

import (
	"borealis/internal/deploy"
)

// layerInputs is everything the per-layer metrics are computed from: the
// traced repetitions' spans and codec sample, the counters the layers
// export, and the untraced repetitions' runtime counters.
type layerInputs struct {
	tr       *tracer
	codec    *tracedFabric
	tuples   uint64 // engine tuples of the traced repetitions
	produced uint64 // source tuples of the traced repetitions
	pk       peaks
	probes   int // buffer-peak samples behind pk
	nodes    nodeMaxima

	// Runtime counters over the untraced repetitions.
	gcAlloc, gcObjects, gcCPU, usedCPU float64
	gcTuples                           uint64
	gcRuns                             int

	tcpDropped, tcpStalls uint64
	compileS              []float64
	// overhead is untraced over traced throughput_tps, minus 1.
	overhead  float64
	overheadN int
}

// per divides, reading 0 where a layer did no work.
func per(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// addLayers reports every per-layer metric. A layer the workload does not
// use reports 0.
func addLayers(r *result, in layerInputs) {
	tr := in.tr
	self := func(k ...kind) float64 {
		var v int64
		for _, x := range k {
			v += tr.self[x]
		}
		return float64(v)
	}
	spans := func(k kind) float64 { return float64(tr.spans[k]) }
	tuples := float64(in.tuples)

	r.addLayer("source.ns_per_tuple", per(self(cbSource, hSource), float64(in.produced)), "ns", int(in.produced))
	r.addLayer("source.log_peak_tuples", float64(in.pk.sourceLog), "count", in.probes)
	r.addLayer("netsim.ns_per_msg", per(self(cbNetsim, sendNetsim), spans(sendNetsim)), "ns", int(tr.spans[sendNetsim]))
	r.addLayer("netsim.msgs_per_ktuple", per(spans(sendNetsim), tuples/1e3), "msg/ktuple", int(tr.spans[sendNetsim]))
	r.addLayer("node.handle_ns_per_msg", per(self(hNode), spans(hNode)), "ns", int(tr.spans[hNode]))
	r.addLayer("node.inputmgr_log_peak_tuples", float64(in.pk.inputLog), "count", in.probes)
	r.addLayer("node.outbuf_peak_tuples", float64(in.pk.outBuf), "count", in.probes)
	r.addLayer("node.reconcile_s_max", in.nodes.reconcileS, "s", 1)
	r.addLayer("node.grant_wait_s_max", in.nodes.grantWaitS, "s", 1)
	r.addLayer("engine.ns_per_tuple", per(self(cbEngine), tuples), "ns", int(in.tuples))
	r.addLayer("engine.max_queue", float64(in.nodes.maxQueue), "count", 1)
	r.addLayer("operator.sunion_timer_ns_per_tuple", per(self(cbOperator), tuples), "ns", int(in.tuples))
	r.addLayer("client.ns_per_delivery", per(self(hClient), spans(hClient)), "ns", int(tr.spans[hClient]))
	gcTuples := float64(in.gcTuples)
	r.addLayer("gc.alloc_bytes_per_tuple", per(in.gcAlloc, gcTuples), "B", int(in.gcTuples))
	r.addLayer("gc.allocs_per_tuple", per(in.gcObjects, gcTuples), "count", int(in.gcTuples))
	r.addLayer("gc.cpu_share", per(in.gcCPU, in.usedCPU), "share", in.gcRuns)

	c := in.codec
	r.check("codec round trip", c.codecErr == nil && c.frames > 0, "%d frames sampled; error %v", c.frames, c.codecErr)
	frames := float64(c.frames)
	r.addLayer("transport.encode_ns_per_frame", per(float64(c.encodeNS), frames), "ns", int(c.frames))
	r.addLayer("transport.decode_ns_per_frame", per(float64(c.decodeNS), frames), "ns", int(c.frames))
	r.addLayer("transport.bytes_per_tuple", per(float64(c.bytes), float64(c.tuples)), "B", int(c.tuples))
	r.addLayer("transport.send_ns_per_msg", per(self(sendTCP), spans(sendTCP)), "ns", int(tr.spans[sendTCP]))
	r.addLayer("transport.dropped_data_share", per(float64(in.tcpDropped), spans(sendTCP)), "share", int(tr.spans[sendTCP]))
	r.addLayer("transport.ctl_stalls", float64(in.tcpStalls), "count", 1)
	lag, _ := percentile(tr.lagNS, 0.99)
	r.addLayer("runtime.lag_ms_p99", lag/1e6, "ms", len(tr.lagNS))
	r.addLayer("scenario.compile_s", median(in.compileS), "s", len(in.compileS))
	r.addLayer("trace.overhead_share", in.overhead, "share", in.overheadN)

	r.check("layer self times sum to total", tr.selfSum() == tr.top,
		"self %d ns, outermost spans %d ns", tr.selfSum(), tr.top)
	layers := tr.layerSelf()
	for _, l := range []string{"engine", "node", "netsim", "source", "operator", "client", "transport", "scenario", "benchmark"} {
		if layers[l] != 0 {
			r.note("self time %-9s %8.1f ms  %5.1f%%", l, float64(layers[l])/1e6, 100*per(float64(layers[l]), float64(tr.top)))
		}
	}
	for k := kind(0); k < numKinds; k++ {
		if tr.spans[k] > 0 {
			r.note("  %-26s %9d spans %8.1f ms self", kindNames[k], tr.spans[k], float64(tr.self[k])/1e6)
		}
	}
}

// nodeMaxima are the worst reconciliation, grant wait and queue length
// over a run's replicas.
type nodeMaxima struct {
	reconcileS, grantWaitS float64
	maxQueue               int
}

func (m *nodeMaxima) add(dep *deploy.Deployment, endUS int64) {
	for _, row := range dep.Nodes {
		for _, nd := range row {
			if nd == nil {
				continue
			}
			m.reconcileS = max(m.reconcileS, maxDurS(nd.ReconcileDurations()))
			m.grantWaitS = max(m.grantWaitS, maxDurS(nd.CM().GrantWaitsAt(endUS)))
			m.maxQueue = max(m.maxQueue, nd.Engine().MaxQueueLen())
		}
	}
}

// maxDurS is the largest of a set of virtual durations, in seconds.
func maxDurS(durs []int64) float64 {
	var m int64
	for _, d := range durs {
		m = max(m, d)
	}
	return float64(m) / 1e6
}
