// Package client implements DPC-speaking client applications (§2.2: "data
// sources and clients implement DPC ... by having them communicate with the
// system through proxies"). A Client owns a proxy — a regular processing
// node running a pass-through diagram (input SUnion → SOutput) — that does
// the protocol work: upstream replica monitoring, Table II switching, dual
// connections, undo handling, and its own reconciliation. The client
// application layer taps the proxy's output locally and keeps the metrics
// the paper reports:
//
//   - Procnew / Delaynew (§2.3.1): the maximum processing latency over
//     output tuples carrying new information;
//   - Ntentative (§2.3.3): tentative tuples received, both in total and as
//     the Definition 2 "since the last stable tuple" streak;
//   - the eventual-consistency audit (Definition 1): the undo-compacted
//     delivered stream must equal a failure-free reference run, with no
//     stable tuple duplicated.
package client

import (
	"fmt"
	"math"

	"borealis/internal/diagram"
	"borealis/internal/fabric"
	"borealis/internal/node"
	"borealis/internal/operator"
	"borealis/internal/runtime"
	"borealis/internal/tuple"
	"borealis/internal/vtime"
)

// Config parameterizes a client.
type Config struct {
	// ID is the proxy's network endpoint.
	ID string
	// Stream is the output stream to consume; Upstreams lists the
	// replica endpoints producing it.
	Stream    string
	Upstreams []string
	// BucketSize and Delay parameterize the proxy's SUnion (the delay is
	// the slack the client itself adds before exposing tentative data;
	// keep it small so measurements reflect the processing nodes).
	BucketSize int64
	Delay      int64
	// TentativeWait overrides the proxy SUnion's tentative-bucket wait.
	TentativeWait int64
	// TentativeBoundaries enables the footnote-5 extension at the proxy.
	TentativeBoundaries bool
	// StallTimeout, CM: proxy node tuning (zero = defaults).
	StallTimeout int64
	CM           node.CMConfig
	// AckInterval paces acknowledgments to the upstream replicas,
	// enabling their output-buffer truncation (§8.1).
	AckInterval int64
	// Record keeps a per-delivery trace (time, tuple) for figure series.
	Record bool
	// NoAudit disables the consistency-audit instrumentation: the
	// undo-compacted view and the stable-duplicate index. On the
	// fault-free chain-throughput scenario the audit adds about 15% to
	// the run's wall time (median 1.17 s against 1.02 s over ten
	// alternating runs on a 2-core Xeon), split about evenly between
	// retaining the view and indexing stable keys. View/StableView
	// return nothing and Stats.StableDuplicates stays zero. Benchmark
	// harnesses only — every correctness path keeps the audit on.
	NoAudit bool
	// PerTuple runs the proxy node's engine on the reference per-tuple
	// data plane instead of the staged batch plane.
	PerTuple bool
}

// Delivery is one recorded delivery.
type Delivery struct {
	At    int64
	Tuple tuple.Tuple
}

// Stats summarizes what the client observed.
type Stats struct {
	// NewTuples counts deliveries that carried new information.
	NewTuples uint64
	// MaxLatency is Procnew·(the maximum now−stime over new tuples).
	MaxLatency int64
	// MinLatency / MeanLatency / StdevLatency summarize per-new-tuple
	// latency (Tables IV and V).
	MinLatency   int64
	MeanLatency  float64
	StdevLatency float64
	// Tentative is the total number of tentative tuples delivered.
	Tentative uint64
	// MaxTentativeStreak is the Definition 2 peak: tentative tuples
	// since the last stable tuple, maximized over time.
	MaxTentativeStreak uint64
	// Undos and RecDones count control tuples delivered.
	Undos, RecDones uint64
	// StableDuplicates counts stable tuples delivered twice — eventual
	// consistency requires this to stay zero.
	StableDuplicates uint64
}

// Client consumes one output stream through a DPC proxy node.
type Client struct {
	cfg   Config
	clk   runtime.Clock
	proxy *node.Node

	// Undo-compacted view of the delivered stream.
	view []tuple.Tuple

	// Newness watermark.
	maxSTime int64

	// Latency accumulators over new tuples.
	latSum, latSumSq float64
	latCount         uint64
	latMin, latMax   int64

	tentative uint64
	streak    uint64
	maxStreak uint64
	undos     uint64
	recDones  uint64

	stableSeen stableIndex
	stableDups uint64

	trace []Delivery

	onDeliver func(Delivery)
}

// New builds a client and its proxy node.
func New(clk runtime.Clock, net fabric.Fabric, cfg Config) (*Client, error) {
	if cfg.BucketSize <= 0 {
		cfg.BucketSize = 100 * vtime.Millisecond
	}
	if cfg.Delay <= 0 {
		cfg.Delay = 100 * vtime.Millisecond
	}
	b := diagram.NewBuilder()
	su := operator.NewSUnion("proxy_in", operator.SUnionConfig{
		Ports:               1,
		BucketSize:          cfg.BucketSize,
		Delay:               cfg.Delay,
		TentativeWait:       cfg.TentativeWait,
		TentativeBoundaries: cfg.TentativeBoundaries,
	})
	b.Add(su)
	b.Add(operator.NewSOutput("proxy_out"))
	b.Connect("proxy_in", "proxy_out", 0)
	b.Input(cfg.Stream, "proxy_in", 0)
	out := cfg.Stream + ".client"
	b.Output(out, "proxy_out")
	d, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	proxy, err := node.New(clk, net, d, node.Config{
		ID:           cfg.ID,
		Upstreams:    map[string][]string{cfg.Stream: cfg.Upstreams},
		StallTimeout: cfg.StallTimeout,
		CM:           cfg.CM,
		AckInterval:  cfg.AckInterval,
		PerTuple:     cfg.PerTuple,
		TapOnly:      true,
	})
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	c := &Client{
		cfg:      cfg,
		clk:      clk,
		proxy:    proxy,
		maxSTime: -1,
		latMin:   math.MaxInt64,
	}
	proxy.OnDeliver(func(_ string, t tuple.Tuple) { c.consume(t) })
	return c, nil
}

// Start begins consuming.
func (c *Client) Start() { c.proxy.Start() }

// Proxy exposes the underlying proxy node.
func (c *Client) Proxy() *node.Node { return c.proxy }

// OnDeliver registers a per-delivery callback (figure series capture).
func (c *Client) OnDeliver(fn func(Delivery)) { c.onDeliver = fn }

// consume processes one tuple delivered by the proxy.
func (c *Client) consume(t tuple.Tuple) {
	now := c.clk.Now()
	if c.cfg.Record {
		if len(c.trace) == cap(c.trace) && len(c.trace) >= 1024 {
			nt := make([]Delivery, len(c.trace), 2*cap(c.trace))
			copy(nt, c.trace)
			c.trace = nt
		}
		c.trace = append(c.trace, Delivery{At: now, Tuple: t})
	}
	if c.onDeliver != nil {
		c.onDeliver(Delivery{At: now, Tuple: t})
	}
	switch {
	case t.IsData():
		if !c.cfg.NoAudit {
			c.view = tuple.Append(c.view, t)
		}
		if t.Type == tuple.Tentative {
			c.tentative++
			c.streak++
			if c.streak > c.maxStreak {
				c.maxStreak = c.streak
			}
		} else {
			c.streak = 0
			if !c.cfg.NoAudit && c.stableSeen.add(stableKey(t)) {
				c.stableDups++
			}
		}
		if t.STime > c.maxSTime {
			c.maxSTime = t.STime
			lat := now - t.STime
			c.latCount++
			c.latSum += float64(lat)
			c.latSumSq += float64(lat) * float64(lat)
			if lat < c.latMin {
				c.latMin = lat
			}
			if lat > c.latMax {
				c.latMax = lat
			}
		}
	case t.Type == tuple.Undo:
		c.undos++
		if !c.cfg.NoAudit {
			c.view = tuple.ApplyUndo(c.view, t.ID)
		}
	case t.Type == tuple.RecDone:
		c.recDones++
	}
}

// stableID is a cheap identity key for duplicate detection: timestamp plus
// an FNV-1a hash of the payload.
type stableID struct {
	stime int64
	hash  uint64
}

func stableKey(t tuple.Tuple) stableID {
	h := uint64(14695981039346656037)
	for _, v := range t.Data {
		for i := 0; i < 8; i++ {
			h ^= uint64(byte(v >> (8 * i)))
			h *= 1099511628211
		}
	}
	return stableID{stime: t.STime, hash: h}
}

// Stats returns the metrics accumulated so far.
func (c *Client) Stats() Stats {
	s := Stats{
		NewTuples:          c.latCount,
		MaxLatency:         c.latMax,
		Tentative:          c.tentative,
		MaxTentativeStreak: c.maxStreak,
		Undos:              c.undos,
		RecDones:           c.recDones,
		StableDuplicates:   c.stableDups,
	}
	if c.latCount > 0 {
		s.MinLatency = c.latMin
		s.MeanLatency = c.latSum / float64(c.latCount)
		v := c.latSumSq/float64(c.latCount) - s.MeanLatency*s.MeanLatency
		if v > 0 {
			s.StdevLatency = math.Sqrt(v)
		}
	}
	return s
}

// ResetLatency clears the latency accumulators (phase-scoped measurement).
func (c *Client) ResetLatency() {
	c.latSum, c.latSumSq, c.latCount = 0, 0, 0
	c.latMin, c.latMax = math.MaxInt64, 0
}

// Trace returns the recorded deliveries (Record must be on).
func (c *Client) Trace() []Delivery { return c.trace }

// View returns the undo-compacted delivered stream.
func (c *Client) View() []tuple.Tuple { return append([]tuple.Tuple(nil), c.view...) }

// StableView returns only the stable prefix content of the delivered
// stream (tentative tuples excluded): what Definition 1 compares.
func (c *Client) StableView() []tuple.Tuple { return insertions(c.view) }

// insertions returns the stable (insertion) tuples of a stream, in order,
// in a slice allocated once at its exact size (nil when there are none).
func insertions(ts []tuple.Tuple) []tuple.Tuple {
	n := 0
	for i := range ts {
		if ts[i].Type == tuple.Insertion {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]tuple.Tuple, 0, n)
	for i := range ts {
		if ts[i].Type == tuple.Insertion {
			out = append(out, ts[i])
		}
	}
	return out
}

// AuditResult reports the eventual-consistency audit.
type AuditResult struct {
	OK               bool
	Reason           string
	Compared         int
	StableDuplicates uint64
}

// VerifyRecentWindow checks the §8.1 convergent-capable guarantee: the most
// recent n stable tuples must match the reference's most recent n, even if
// older corrections were sacrificed to bounded buffers.
func (c *Client) VerifyRecentWindow(reference []tuple.Tuple, n int) AuditResult {
	got := c.StableView()
	ref := insertions(reference)
	if len(got) < n || len(ref) < n {
		return AuditResult{OK: false, Reason: "not enough stable output to compare"}
	}
	got = got[len(got)-n:]
	ref = ref[len(ref)-n:]
	for i := 0; i < n; i++ {
		if !tuple.SameValue(got[i], ref[i]) {
			return AuditResult{
				OK:     false,
				Reason: fmt.Sprintf("recent window diverges at %d: got %v, want %v", i, got[i], ref[i]),
			}
		}
	}
	return AuditResult{OK: true, Compared: n}
}

// VerifyEventualConsistency checks Definition 1 against a failure-free
// reference stream: the client's final stable view must equal the
// reference, value for value, with no stable duplicates delivered.
func (c *Client) VerifyEventualConsistency(reference []tuple.Tuple) AuditResult {
	res := VerifyViews(c.StableView(), reference)
	if res.OK {
		res.StableDuplicates = c.stableDups
	}
	return res
}

// VerifyViews is the Definition 1 comparison on bare views: got is a stable
// (insertion-only) view, reference a failure-free run's delivered stream
// (tentative tuples are filtered out here). The cluster boss audits a
// worker's shipped stable view against its local reference run with it — no
// live Client needed on the auditing side.
func VerifyViews(got, reference []tuple.Tuple) AuditResult {
	ref := insertions(reference)
	n := len(got)
	if len(ref) < n {
		n = len(ref)
	}
	for i := 0; i < n; i++ {
		if !tuple.SameValue(got[i], ref[i]) {
			return AuditResult{
				OK:     false,
				Reason: fmt.Sprintf("divergence at stable position %d: got %v, want %v", i, got[i], ref[i]),
			}
		}
	}
	// Note: Stats().StableDuplicates is a heuristic (identical payloads can
	// legitimately repeat, e.g. join outputs); genuine re-delivery shifts
	// positions and is caught by the comparison above.
	return AuditResult{OK: true, Compared: n}
}
