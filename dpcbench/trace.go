package main

import (
	"reflect"
	goruntime "runtime"
	"strings"
	"sync"
	"time"

	"borealis/internal/fabric"
	"borealis/internal/node"
	rtpkg "borealis/internal/runtime"
	"borealis/internal/transport"
)

// kind classifies one timed span: a clock callback by the package that owns
// its function, a fabric handler by the endpoint it serves, or a fabric
// Send by the fabric underneath.
type kind uint8

const (
	cbEngine    kind = iota // engine service completion
	cbSource                // source tick
	cbNetsim                // netsim delivery
	cbOperator              // SUnion timers
	cbNode                  // CM keep-alive, acks, stall timers, OutputBuffer flush
	cbTransport             // TCP delivery into the run loop
	cbOther                 // scenario workload and fault events
	hNode                   // handler of a node replica endpoint
	hClient                 // handler of the client endpoint
	hSource                 // handler of a source endpoint
	sendNetsim              // netsim.Net.Send
	sendTCP                 // transport.TCP.Send
	benchCodec              // the benchmark's own codec sampling
	numKinds
)

var kindNames = [numKinds]string{
	"callback engine", "callback source", "callback netsim", "callback operator",
	"callback node", "callback transport", "callback other",
	"handler node", "handler client", "handler source",
	"send netsim", "send transport", "benchmark codec sampling",
}

// layerOf names the module a span kind's self time belongs to.
var layerOf = [numKinds]string{
	"engine", "source", "netsim", "operator", "node", "transport", "scenario",
	"node", "client", "source",
	"netsim", "transport", "benchmark",
}

// tracer accumulates span times for one run loop. Spans nest: a span's
// self time is its duration minus the durations of the spans opened and
// closed inside it, so the self times of all spans add up to the summed
// duration of the outermost spans and nothing is counted twice. A tracer
// is used only from the goroutine that drives its clock.
type tracer struct {
	now   func() int64 // nanoseconds on a monotonic clock
	stack []frame
	self  [numKinds]int64
	spans [numKinds]uint64
	// top is the summed duration of spans opened with no span open.
	top int64
	// lagNS collects, on a wall clock, how late each source tick fired
	// against its scheduled instant.
	lagNS []float64
}

type frame struct {
	k     kind
	start int64
	child int64
}

var epoch = time.Now()

func monoNS() int64 { return int64(time.Since(epoch)) }

func newTracer() *tracer { return &tracer{now: monoNS} }

func (t *tracer) begin(k kind) {
	t.stack = append(t.stack, frame{k: k, start: t.now()})
}

func (t *tracer) end() {
	f := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	d := t.now() - f.start
	t.self[f.k] += d - f.child
	t.spans[f.k]++
	if len(t.stack) > 0 {
		t.stack[len(t.stack)-1].child += d
	} else {
		t.top += d
	}
}

// merge adds another tracer's totals (a second worker, a second
// repetition) into t.
func (t *tracer) merge(o *tracer) {
	for k := range t.self {
		t.self[k] += o.self[k]
		t.spans[k] += o.spans[k]
	}
	t.top += o.top
	t.lagNS = append(t.lagNS, o.lagNS...)
}

// selfSum is the summed self time of every span kind; it equals top.
func (t *tracer) selfSum() int64 {
	var s int64
	for _, v := range t.self {
		s += v
	}
	return s
}

// layerSelf sums self time per layer name.
func (t *tracer) layerSelf() map[string]int64 {
	out := map[string]int64{}
	for k, v := range t.self {
		out[layerOf[k]] += v
	}
	return out
}

// callbackKind resolves a scheduled function to the module that owns it,
// once per function pointer.
type kindCache struct {
	mu sync.Mutex
	m  map[uintptr]kind
}

func (c *kindCache) of(fn any) kind {
	pc := reflect.ValueOf(fn).Pointer()
	c.mu.Lock()
	defer c.mu.Unlock()
	if k, ok := c.m[pc]; ok {
		return k
	}
	k := callbackKindOf(funcName(pc))
	if c.m == nil {
		c.m = map[uintptr]kind{}
	}
	c.m[pc] = k
	return k
}

func funcName(pc uintptr) string {
	if f := goruntime.FuncForPC(pc); f != nil {
		return f.Name()
	}
	return ""
}

// callbackKindOf maps a fully qualified function name, such as
// "borealis/internal/engine.(*Engine).svcDone-fm", to its span kind.
func callbackKindOf(name string) kind {
	pkg, _, _ := strings.Cut(strings.TrimPrefix(name, "borealis/internal/"), ".")
	switch pkg {
	case "engine":
		return cbEngine
	case "source":
		return cbSource
	case "netsim":
		return cbNetsim
	case "operator":
		return cbOperator
	case "node":
		return cbNode
	case "transport":
		return cbTransport
	}
	return cbOther
}

// tracedClock wraps a runtime and times every callback scheduled through
// it as a span of the kind that owns the callback's function. On a wall
// clock it also records how late each source tick fired: inside a callback
// Now() is the event's scheduled instant, so the lateness is the real time
// elapsed since anchor minus that instant scaled by speed.
type tracedClock struct {
	rtpkg.Runtime
	tr    *tracer
	kinds *kindCache
	// wall is set for a wall clock; anchor is the real instant its drive
	// call started and speed its time scale.
	wall   bool
	anchor time.Time
	speed  float64
}

func (c *tracedClock) wrap(k kind, fn func()) func() {
	return func() {
		// Only source ticks count: they are the open-loop generator, and
		// each fires at a time fixed in advance. Work that descends from a
		// socket delivery is scheduled at the event-anchored Now of the
		// moment, which stands still between events, so its lateness
		// would measure the gaps between events instead.
		if c.wall && k == cbSource {
			due := c.anchor.Add(time.Duration(float64(c.Runtime.Now()) * 1e3 / c.speed))
			c.tr.lagNS = append(c.tr.lagNS, float64(time.Since(due)))
		}
		c.tr.begin(k)
		fn()
		c.tr.end()
	}
}

func (c *tracedClock) At(t int64, fn func()) rtpkg.Timer {
	return c.Runtime.At(t, c.wrap(c.kinds.of(fn), fn))
}

func (c *tracedClock) After(d int64, fn func()) rtpkg.Timer {
	return c.Runtime.After(d, c.wrap(c.kinds.of(fn), fn))
}

func (c *tracedClock) AtCall(t int64, fn func(any), arg any) rtpkg.Timer {
	return c.Runtime.At(t, c.wrap(c.kinds.of(fn), func() { fn(arg) }))
}

func (c *tracedClock) AfterCall(d int64, fn func(any), arg any) rtpkg.Timer {
	return c.Runtime.After(d, c.wrap(c.kinds.of(fn), func() { fn(arg) }))
}

func (c *tracedClock) NewTicker(interval int64, fn func()) rtpkg.Ticker {
	return c.Runtime.NewTicker(interval, c.wrap(c.kinds.of(fn), fn))
}

// codecSampleEvery spaces the sends the traced fabric also runs through
// the wire codec: one in sixteen keeps the benchmark's own cost to a few
// percent of the traced time.
const codecSampleEvery = 16

// tracedFabric wraps a fabric and times every handler it delivers to (by
// endpoint kind) and every Send (as the wrapped fabric's kind). A sample
// of the sent messages is also encoded with transport.AppendFrame and
// decoded with transport.DecodeFrame, timing the codec and counting the
// bytes it would put on the wire, inside a span of its own so the codec
// work does not land in any layer of the program.
type tracedFabric struct {
	inner    fabric.Fabric
	tr       *tracer
	sendKind kind
	sources  map[string]bool

	sends      uint64
	codecFrame []byte
	encodeNS   int64
	decodeNS   int64
	frames     uint64
	bytes      uint64
	tuples     uint64
	codecErr   error
}

func (f *tracedFabric) Register(id string, h fabric.Handler) {
	k := hNode
	switch {
	case id == "client":
		k = hClient
	case f.sources[id]:
		k = hSource
	}
	f.inner.Register(id, func(from string, msg any) {
		f.tr.begin(k)
		h(from, msg)
		f.tr.end()
	})
}

func (f *tracedFabric) Send(from, to string, msg any) {
	f.sends++
	if f.sends%codecSampleEvery == 0 {
		f.tr.begin(benchCodec)
		f.sampleCodec(from, to, msg)
		f.tr.end()
	}
	f.tr.begin(f.sendKind)
	f.inner.Send(from, to, msg)
	f.tr.end()
}

func (f *tracedFabric) SetDown(id string, down bool) { f.inner.SetDown(id, down) }

func (f *tracedFabric) sampleCodec(from, to string, msg any) {
	t0 := monoNS()
	frame, err := transport.AppendFrame(f.codecFrame[:0], from, to, msg)
	t1 := monoNS()
	if err != nil {
		f.codecErr = err
		return
	}
	_, _, _, err = transport.DecodeFrame(frame[4:])
	t2 := monoNS()
	if err != nil {
		f.codecErr = err
		return
	}
	f.codecFrame = frame
	f.encodeNS += t1 - t0
	f.decodeNS += t2 - t1
	f.frames++
	f.bytes += uint64(len(frame))
	if dm, ok := msg.(node.DataMsg); ok {
		f.tuples += uint64(len(dm.Tuples))
	}
}

// mergeCodec adds another fabric's codec sample into f.
func (f *tracedFabric) mergeCodec(o *tracedFabric) {
	f.encodeNS += o.encodeNS
	f.decodeNS += o.decodeNS
	f.frames += o.frames
	f.bytes += o.bytes
	f.tuples += o.tuples
	if f.codecErr == nil {
		f.codecErr = o.codecErr
	}
}
